package core

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"chiaroscuro/internal/dp"
)

// streamFeed builds a deterministic drifting population for streaming
// tests: participant i's full series over dim+windows·slide samples
// follows its blob's slow sinusoidal drift, so successive windows move
// gently — the regime warm-starting is designed for. Returns the initial
// window rows plus the per-window slide batches; the window-w data is
// full[i][w·slide : w·slide+dim].
func streamFeed(n, dim, windows, slide, nblobs int) (initial [][]float64, steps [][][]float64, full [][]float64) {
	total := dim + windows*slide
	full = make([][]float64, n)
	for i := range full {
		base := 0.15 + 0.7*float64(i%nblobs)/float64(nblobs)
		phase := float64(i%7) / 7
		s := make([]float64, total)
		for t := range s {
			v := base +
				0.06*math.Sin(2*math.Pi*(float64(t)/float64(total)+phase)) +
				0.02*float64((i*7+t*3)%5-2)/5
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			s[t] = v
		}
		full[i] = s
	}
	initial = make([][]float64, n)
	for i := range initial {
		initial[i] = append([]float64(nil), full[i][:dim]...)
	}
	steps = make([][][]float64, windows)
	for w := range steps {
		steps[w] = make([][]float64, n)
		for i := range steps[w] {
			steps[w][i] = append([]float64(nil), full[i][dim+w*slide:dim+(w+1)*slide]...)
		}
	}
	return initial, steps, full
}

// streamBase is the shared per-window shape of the streaming tests.
func streamBase() Params {
	return Params{K: 3, Iterations: 2, Seed: 41, GossipRounds: 10, DecryptThreshold: 4}
}

// assertWindowsBitIdentical compares two window results field by field,
// including the per-window trace.
func assertWindowsBitIdentical(t *testing.T, a, b *WindowResult, label string) {
	t.Helper()
	if a.Window != b.Window || a.Skipped != b.Skipped || a.WarmStarted != b.WarmStarted {
		t.Fatalf("%s: header mismatch: %+v vs %+v", label, a, b)
	}
	if a.EpsilonDrawn != b.EpsilonDrawn {
		t.Fatalf("%s: drawn epsilon %v vs %v", label, a.EpsilonDrawn, b.EpsilonDrawn)
	}
	bothNaN := math.IsNaN(a.Drift) && math.IsNaN(b.Drift)
	if !bothNaN && a.Drift != b.Drift {
		t.Fatalf("%s: drift %v vs %v", label, a.Drift, b.Drift)
	}
	if a.Budget != b.Budget {
		t.Fatalf("%s: budget %+v vs %+v", label, a.Budget, b.Budget)
	}
	for j := range a.Centroids {
		for tt := range a.Centroids[j] {
			if a.Centroids[j][tt] != b.Centroids[j][tt] {
				t.Fatalf("%s: centroid %d[%d]: %v vs %v", label, j, tt, a.Centroids[j][tt], b.Centroids[j][tt])
			}
		}
	}
	if (a.Trace == nil) != (b.Trace == nil) {
		t.Fatalf("%s: one side has a trace, the other does not", label)
	}
	if a.Trace != nil {
		assertTracesBitIdentical(t, a.Trace, b.Trace, label)
		if a.Trace.Ops != b.Trace.Ops {
			t.Fatalf("%s: ops %+v vs %+v", label, a.Trace.Ops, b.Trace.Ops)
		}
		if a.Trace.Privacy != b.Trace.Privacy {
			t.Fatalf("%s: privacy %+v vs %+v", label, a.Trace.Privacy, b.Trace.Privacy)
		}
	}
}

const streamGoldenPath = "testdata/golden_stream.json"

// TestStreamGoldenTrajectories is the streaming golden test: an 8-window
// warm-start session must (a) disclose bit-identical trajectories at
// Base.Workers 0 and at every sharded worker count, window by window —
// the determinism contract survives the session refactor — and (b)
// match the committed fixture bit for bit, so a refactor anywhere in the
// stack cannot silently change what a stream discloses.
//
// Regenerate the fixture after an intentional disclosure change with:
//
//	go test ./internal/core -run Golden -update-golden
func TestStreamGoldenTrajectories(t *testing.T) {
	const windows, slide = 8, 2
	initial, steps, _ := streamFeed(48, 6, windows, slide, 3)

	runStream := func(workers int) []*WindowResult {
		t.Helper()
		base := streamBase()
		base.Workers = workers
		s, err := NewRunSession(initial, SessionParams{
			Base:            base,
			LifetimeEpsilon: 160,
			Windows:         windows,
			WarmStart:       true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		out := make([]*WindowResult, 0, windows)
		for w := 0; w < windows; w++ {
			var pts [][]float64
			if w > 0 {
				pts = steps[w-1]
			}
			res, err := s.Advance(pts)
			if err != nil {
				t.Fatalf("window %d: %v", w, err)
			}
			out = append(out, res)
		}
		return out
	}

	seq := runStream(0)
	for _, workers := range []int{1, 3, 7, 16} {
		sh := runStream(workers)
		for w := range seq {
			assertWindowsBitIdentical(t, seq[w], sh[w],
				"sharded("+string(rune('0'+workers))+") window "+string(rune('0'+w)))
		}
	}

	// Warm-start must actually engage: every window after the first
	// starts from the previous disclosure.
	for w, res := range seq {
		if got, want := res.WarmStarted, w > 0; got != want {
			t.Fatalf("window %d: WarmStarted = %v, want %v", w, got, want)
		}
	}

	var got []goldenRun
	for _, res := range seq {
		got = append(got, goldenFromTrace("stream-window", res.Trace))
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(streamGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamGoldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d windows", streamGoldenPath, len(got))
		return
	}
	buf, err := os.ReadFile(streamGoldenPath)
	if err != nil {
		t.Fatalf("missing fixture (run with -update-golden to create): %v", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("fixture has %d windows, produced %d (regenerate with -update-golden)", len(want), len(got))
	}
	for i := range want {
		if err := diffGolden(want[i], got[i]); err != nil {
			t.Errorf("window %d: disclosed trajectory changed: %v\n(if intentional, regenerate with -update-golden)", i, err)
		}
	}
}

// TestStreamWarmStartEquivalence pins the warm-start contract: window w
// of a warm-started session is bit-identical to a ONE-SHOT run over the
// same slid data whose only deviations from the session's base are the
// derived window seed, the drawn epsilon, and the previous window's
// disclosed centroids as the starting ones. Warm-start changes which
// centroids iteration 0 starts from — nothing else — and the reused
// session suite leaks no state into trajectories or accounting.
func TestStreamWarmStartEquivalence(t *testing.T) {
	const windows, slide, dim = 4, 2, 6
	initial, steps, full := streamFeed(40, dim, windows, slide, 3)

	s, err := NewRunSession(initial, SessionParams{
		Base:            streamBase(),
		LifetimeEpsilon: 80,
		Windows:         windows,
		WarmStart:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var prevDisclosed [][]float64
	for w := 0; w < windows; w++ {
		var pts [][]float64
		if w > 0 {
			pts = steps[w-1]
		}
		res, err := s.Advance(pts)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}

		// The one-shot oracle: same slid data, derived seed, drawn
		// epsilon; warm windows additionally start from the previous
		// disclosure.
		data := make([][]float64, len(full))
		for i := range data {
			data[i] = append([]float64(nil), full[i][w*slide:w*slide+dim]...)
		}
		wp := streamBase()
		wp.Epsilon = res.EpsilonDrawn
		wp.Seed = sessionWindowSeed(streamBase().Seed, w)
		if w > 0 {
			wp.InitialCentroids = prevDisclosed
		}
		oracle, err := Run(data, wp)
		if err != nil {
			t.Fatalf("oracle window %d: %v", w, err)
		}
		assertTracesBitIdentical(t, res.Trace, oracle, "window vs one-shot")
		if res.Trace.Ops != oracle.Ops {
			t.Fatalf("window %d: session ops %+v vs one-shot %+v (suite reuse leaked state)", w, res.Trace.Ops, oracle.Ops)
		}
		if res.Trace.Privacy != oracle.Privacy {
			t.Fatalf("window %d: privacy %+v vs %+v", w, res.Trace.Privacy, oracle.Privacy)
		}
		prevDisclosed = deepCopyMatrix(oracle.FinalCentroids)
	}
}

// TestStreamBudgetExhaustionRefusal is the hard refusal path: a uniform
// spend over the planning horizon exhausts the lifetime budget exactly,
// and the window after the horizon is refused with ErrBudgetExhausted.
func TestStreamBudgetExhaustionRefusal(t *testing.T) {
	initial, steps, _ := streamFeed(24, 4, 3, 1, 2)
	base := Params{K: 2, Iterations: 2, Seed: 7, GossipRounds: 8, DecryptThreshold: 3}
	s, err := NewRunSession(initial, SessionParams{
		Base:            base,
		LifetimeEpsilon: 40,
		Windows:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for w := 0; w < 2; w++ {
		var pts [][]float64
		if w > 0 {
			pts = steps[w-1]
		}
		res, err := s.Advance(pts)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		if math.Abs(res.EpsilonDrawn-20) > 1e-9 {
			t.Fatalf("window %d drew %v, want 20", w, res.EpsilonDrawn)
		}
	}
	if _, err := s.Advance(steps[1]); !errors.Is(err, dp.ErrBudgetExhausted) {
		t.Fatalf("past-horizon window: err = %v, want ErrBudgetExhausted", err)
	}
	// The refusal is stable: the session did not wedge or spend.
	rep := s.Budget().Report()
	if rep.Spends != 2 || rep.Remaining > 40*1e-9 {
		t.Fatalf("budget after refusal: %+v", rep)
	}
	if _, err := s.Advance(nil); !errors.Is(err, dp.ErrBudgetExhausted) {
		t.Fatalf("repeat refusal: err = %v", err)
	}
}

// TestStreamThresholdSkipsAndForcedRecluster drives the drift-triggered
// strategy: with a drift bound far above anything the data produces,
// every window after the first is skipped (previous centroids carried
// forward, nothing spent) until MaxSkips forces a re-cluster.
func TestStreamThresholdSkipsAndForcedRecluster(t *testing.T) {
	const windows = 6
	initial, steps, _ := streamFeed(24, 4, windows, 1, 2)
	base := Params{K: 2, Iterations: 2, Seed: 7, GossipRounds: 8, DecryptThreshold: 3}
	s, err := NewRunSession(initial, SessionParams{
		Base:            base,
		LifetimeEpsilon: 120,
		Windows:         windows,
		WarmStart:       true,
		Spend:           dp.SpendThreshold{Drift: 10, MaxSkips: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var results []*WindowResult
	for w := 0; w < windows; w++ {
		var pts [][]float64
		if w > 0 {
			pts = steps[w-1]
		}
		res, err := s.Advance(pts)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		results = append(results, res)
	}
	// w0 and w1 run (the drift signal needs two disclosures), w2–w3 skip
	// under the generous bound, w4 is the MaxSkips-forced re-cluster,
	// w5 skips again.
	wantSkips := []bool{false, false, true, true, false, true}
	for w, res := range results {
		if res.Skipped != wantSkips[w] {
			t.Fatalf("window %d: skipped = %v, want %v", w, res.Skipped, wantSkips[w])
		}
	}
	// Skipped windows carry the previous disclosure forward bit for bit
	// and spend nothing.
	for j := range results[1].Centroids {
		for tt := range results[1].Centroids[j] {
			if results[2].Centroids[j][tt] != results[1].Centroids[j][tt] {
				t.Fatal("skipped window must carry the previous centroids forward")
			}
		}
	}
	rep := s.Budget().Report()
	if rep.Spends != 3 || rep.Skips != 3 {
		t.Fatalf("budget = %+v, want 3 windows / 3 skips", rep)
	}
	if results[2].EpsilonDrawn != 0 {
		t.Fatalf("skipped window drew %v, want 0", results[2].EpsilonDrawn)
	}
}

// TestStreamStrategySwitchMidStream covers tightening the budget
// discipline of a live session: a strategy that switches rule at window 2
// keeps spending from the same budget, and a twin session making the
// identical switch discloses bit-identical windows (strategy switching is
// part of the deterministic surface).
func TestStreamStrategySwitchMidStream(t *testing.T) {
	const windows = 4
	initial, steps, _ := streamFeed(24, 4, windows, 1, 2)
	base := Params{K: 2, Iterations: 2, Seed: 7, GossipRounds: 8, DecryptThreshold: 3}

	run := func() []*WindowResult {
		t.Helper()
		s, err := NewRunSession(initial, SessionParams{
			Base:            base,
			LifetimeEpsilon: 80,
			Windows:         8,
			WarmStart:       true,
			Spend:           switchAt{window: 2, before: dp.SpendUniform{}, after: dp.SpendDecaying{Factor: 0.5}},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var out []*WindowResult
		for w := 0; w < windows; w++ {
			var pts [][]float64
			if w > 0 {
				pts = steps[w-1]
			}
			res, err := s.Advance(pts)
			if err != nil {
				t.Fatalf("window %d: %v", w, err)
			}
			out = append(out, res)
		}
		return out
	}

	a, b := run(), run()
	for w := range a {
		assertWindowsBitIdentical(t, a[w], b[w], "strategy-switch twin")
	}
	// Uniform over 8 planned windows draws 10, 10; decaying then halves
	// what remains of the 80 budget.
	if math.Abs(a[0].EpsilonDrawn-10) > 1e-9 || math.Abs(a[1].EpsilonDrawn-10) > 1e-9 {
		t.Fatalf("uniform phase drew %v, %v, want 10, 10", a[0].EpsilonDrawn, a[1].EpsilonDrawn)
	}
	if math.Abs(a[2].EpsilonDrawn-30) > 1e-9 {
		t.Fatalf("decaying phase drew %v, want 30 (half of the remaining 60)", a[2].EpsilonDrawn)
	}
}

// switchAt is a test strategy that decides with before until the given
// window and with after from then on.
type switchAt struct {
	window        int
	before, after dp.SpendStrategy
}

func (s switchAt) Name() string { return "switch-at" }
func (s switchAt) Decide(st dp.SpendState) (dp.SpendDecision, error) {
	if st.Window < s.window {
		return s.before.Decide(st)
	}
	return s.after.Decide(st)
}

// TestSessionValidationErrors pins the session-layer validation paths.
func TestSessionValidationErrors(t *testing.T) {
	initial, steps, _ := streamFeed(10, 4, 2, 1, 2)
	base := Params{K: 2, Iterations: 2, Seed: 7, GossipRounds: 6, DecryptThreshold: 3}

	cases := []struct {
		name string
		sp   SessionParams
		want string
	}{
		{
			name: "epsilon set on base",
			sp: SessionParams{Base: func() Params { p := base; p.Epsilon = 1; return p }(),
				LifetimeEpsilon: 10},
			want: "core: session windows draw epsilon from the lifetime budget — leave Params.Epsilon zero",
		},
		{
			name: "missing lifetime budget",
			sp:   SessionParams{Base: base},
			want: "core: lifetime epsilon 0 must be positive",
		},
		{
			name: "negative planned windows",
			sp:   SessionParams{Base: base, LifetimeEpsilon: 10, Windows: -3},
			want: "core: planned windows -3 must be non-negative",
		},
		{
			name: "churn rejected",
			sp: SessionParams{Base: func() Params { p := base; p.ChurnCrashProb = 0.1; return p }(),
				LifetimeEpsilon: 10},
			want: "core: churn is not supported in streaming sessions yet",
		},
		{
			name: "unknown smoothing method",
			sp: SessionParams{Base: func() Params { p := base; p.Smoothing.Method = SmoothingMethod(7); return p }(),
				LifetimeEpsilon: 10},
			want: "core: unknown smoothing method 7",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewRunSession(initial, tc.sp)
			if err == nil {
				t.Fatalf("want error %q, got success", tc.want)
			}
			if err.Error() != tc.want {
				t.Fatalf("error text:\n  got:  %s\n  want: %s", err, tc.want)
			}
		})
	}

	s, err := NewRunSession(initial, SessionParams{Base: base, LifetimeEpsilon: 40, Windows: 2, Spend: alwaysSkip{}})
	if err != nil {
		t.Fatal(err)
	}
	// Advance-time shape violations.
	if err := s.advanceWindow(steps[0][:3]); err == nil {
		t.Fatal("wrong series count must fail")
	}
	if err := s.advanceWindow(make([][]float64, 10)); err == nil {
		t.Fatal("empty rows must fail")
	}
	bad := make([][]float64, 10)
	for i := range bad {
		bad[i] = []float64{0.5}
	}
	bad[3] = []float64{0.5, 0.5}
	if err := s.advanceWindow(bad); err == nil {
		t.Fatal("ragged advance must fail")
	}
	bad[3] = []float64{7}
	bad[0] = []float64{0.5}
	if err := s.advanceWindow(bad); err == nil {
		t.Fatal("out-of-range value must fail")
	}
	wide := make([][]float64, 10)
	for i := range wide {
		wide[i] = []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	}
	if err := s.advanceWindow(wide); err == nil {
		t.Fatal("over-wide advance must fail")
	}
	// Skipping the very first window has nothing to carry forward.
	if _, err := s.Advance(nil); err == nil {
		t.Fatal("skip of the first window must fail")
	}
	s.Close()
	if _, err := s.Advance(nil); err == nil || err.Error() != "core: session is closed" {
		t.Fatalf("closed advance: err = %v", err)
	}
	s.Close() // idempotent
}

// alwaysSkip is a test strategy that skips every window.
type alwaysSkip struct{}

func (alwaysSkip) Name() string { return "always-skip" }
func (alwaysSkip) Decide(dp.SpendState) (dp.SpendDecision, error) {
	return dp.SpendDecision{Skip: true}, nil
}
