package chiaroscuro_test

import (
	"errors"
	"math"
	"sync"
	"testing"

	"chiaroscuro"
)

// streamData generates a CER-like population long enough for the whole
// stream and splits it into the initial window plus per-window slides.
func streamData(t *testing.T, n, dim, windows, slide int) (initial [][]float64, steps [][][]float64) {
	t.Helper()
	total := dim + windows*slide
	series, _, _, err := chiaroscuro.SyntheticCERErr(n, total, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := chiaroscuro.Normalize01(series); err != nil {
		t.Fatal(err)
	}
	initial = make([][]float64, n)
	for i := range initial {
		initial[i] = append([]float64(nil), series[i][:dim]...)
	}
	steps = make([][][]float64, windows)
	for w := range steps {
		steps[w] = make([][]float64, n)
		for i := range steps[w] {
			steps[w][i] = append([]float64(nil), series[i][dim+w*slide:dim+(w+1)*slide]...)
		}
	}
	return initial, steps
}

// TestOpenStreamEndToEnd drives a warm-started stream through four
// windows and checks the public surface: per-window stream info, the
// longitudinal budget position, and determinism (a twin session
// discloses bit-identical centroids).
func TestOpenStreamEndToEnd(t *testing.T) {
	const windows, slide = 4, 2
	initial, steps := streamData(t, 40, 8, windows, slide)
	cfg := chiaroscuro.Config{
		K:               3,
		LifetimeEpsilon: 80,
		Windows:         windows,
		WarmStart:       true,
		Seed:            3,
	}

	run := func() []*chiaroscuro.Result {
		t.Helper()
		sess, err := chiaroscuro.OpenStream(initial, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		var out []*chiaroscuro.Result
		for w := 0; w < windows; w++ {
			var pts [][]float64
			if w > 0 {
				pts = steps[w-1]
			}
			res, err := sess.Advance(pts)
			if err != nil {
				t.Fatalf("window %d: %v", w, err)
			}
			out = append(out, res)
		}
		if got := sess.Window(); got != windows {
			t.Fatalf("Window() = %d, want %d", got, windows)
		}
		if b := sess.Budget(); b.Windows != windows || b.Remaining > 80*1e-9 {
			t.Fatalf("final budget = %+v", b)
		}
		return out
	}

	results := run()
	for w, res := range results {
		if res.Stream == nil {
			t.Fatalf("window %d: Result.Stream is nil", w)
		}
		st := res.Stream
		if st.Window != w || st.Skipped {
			t.Fatalf("window %d: stream info %+v", w, st)
		}
		if got, want := st.WarmStarted, w > 0; got != want {
			t.Fatalf("window %d: WarmStarted = %v, want %v", w, got, want)
		}
		if math.Abs(st.EpsilonDrawn-20) > 1e-9 {
			t.Fatalf("window %d drew %v, want 20 (uniform over 4)", w, st.EpsilonDrawn)
		}
		if w == 0 && !math.IsNaN(st.Drift) {
			t.Fatalf("window 0 drift = %v, want NaN", st.Drift)
		}
		if w > 0 && (math.IsNaN(st.Drift) || st.Drift < 0) {
			t.Fatalf("window %d drift = %v", w, st.Drift)
		}
		if len(res.Centroids) != cfg.K || len(res.Trace) == 0 {
			t.Fatalf("window %d: truncated result", w)
		}
		if res.Privacy.EpsilonBudget != st.EpsilonDrawn {
			t.Fatalf("window %d: per-window budget %v vs drawn %v", w, res.Privacy.EpsilonBudget, st.EpsilonDrawn)
		}
	}
	// One-shot results carry no stream info.
	oneShot, err := chiaroscuro.Cluster(initial, chiaroscuro.Config{K: 3, Epsilon: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if oneShot.Stream != nil {
		t.Fatal("one-shot Result.Stream must be nil")
	}

	twin := run()
	for w := range results {
		for j := range results[w].Centroids {
			for tt := range results[w].Centroids[j] {
				a := math.Float64bits(results[w].Centroids[j][tt])
				b := math.Float64bits(twin[w].Centroids[j][tt])
				if a != b {
					t.Fatalf("window %d: twin session diverged at centroid %d[%d]", w, j, tt)
				}
			}
		}
	}
}

// TestStreamSkippedWindowShape pins what a skipped window's Result
// looks like: previous centroids carried forward, stream info marked,
// protocol fields empty.
func TestStreamSkippedWindowShape(t *testing.T) {
	const windows, slide = 3, 1
	initial, steps := streamData(t, 24, 6, windows, slide)
	sess, err := chiaroscuro.OpenStream(initial, chiaroscuro.Config{
		K:               2,
		LifetimeEpsilon: 120,
		Windows:         windows,
		WarmStart:       true,
		BudgetStrategy:  "threshold",
		DriftThreshold:  10, // generous: skip as soon as a drift signal exists
		Seed:            5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// Windows 0 and 1 run (the drift signal needs two disclosures);
	// window 2 skips under the generous bound.
	var prev *chiaroscuro.Result
	for w := 0; w < 2; w++ {
		var pts [][]float64
		if w > 0 {
			pts = steps[w-1]
		}
		prev, err = sess.Advance(pts)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		if prev.Stream.Skipped {
			t.Fatalf("window %d skipped unexpectedly", w)
		}
	}
	res, err := sess.Advance(steps[1])
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stream
	// A skipped window runs nothing — so nothing was warm-started.
	if !st.Skipped || st.EpsilonDrawn != 0 || st.WarmStarted {
		t.Fatalf("skipped stream info = %+v", st)
	}
	if len(res.Trace) != 0 || res.Network.MessagesSent != 0 || !math.IsNaN(res.Inertia) {
		t.Fatalf("skipped window leaked protocol fields: %+v", res)
	}
	for j := range res.Centroids {
		for tt := range res.Centroids[j] {
			if res.Centroids[j][tt] != prev.Centroids[j][tt] {
				t.Fatal("skipped window must carry the previous centroids")
			}
		}
	}
	if b := sess.Budget(); b.Skips != 1 || b.Windows != 2 {
		t.Fatalf("budget after skip = %+v", b)
	}
}

// TestStreamBudgetExhaustion checks the public hard-refusal path.
func TestStreamBudgetExhaustion(t *testing.T) {
	initial, steps := streamData(t, 24, 6, 2, 1)
	sess, err := chiaroscuro.OpenStream(initial, chiaroscuro.Config{
		K:               2,
		LifetimeEpsilon: 10,
		Windows:         2,
		Seed:            5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for w := 0; w < 2; w++ {
		var pts [][]float64
		if w > 0 {
			pts = steps[w-1]
		}
		if _, err := sess.Advance(pts); err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
	}
	if _, err := sess.Advance(steps[1]); !errors.Is(err, chiaroscuro.ErrBudgetExhausted) {
		t.Fatalf("past-horizon advance: err = %v, want ErrBudgetExhausted", err)
	}
}

// TestStreamAdvanceRejectsNaN checks that a NaN among a window's new
// points is refused with the range error (a NaN compares false against
// both bounds), that the refused slide leaves the population untouched,
// and that the session stays usable.
func TestStreamAdvanceRejectsNaN(t *testing.T) {
	initial, steps := streamData(t, 24, 6, 2, 1)
	cfg := chiaroscuro.Config{K: 2, LifetimeEpsilon: 40, Windows: 4, Seed: 5}
	drive := func(poison bool) *chiaroscuro.Result {
		t.Helper()
		sess, err := chiaroscuro.OpenStream(initial, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if _, err := sess.Advance(nil); err != nil {
			t.Fatal(err)
		}
		if poison {
			bad := make([][]float64, len(steps[0]))
			for i, row := range steps[0] {
				bad[i] = append([]float64(nil), row...)
			}
			bad[7][0] = math.NaN()
			_, err := sess.Advance(bad)
			want := "core: series 7 new value NaN at 0 outside [0, 1] — normalize first"
			if err == nil || err.Error() != want {
				t.Fatalf("NaN advance: err = %v, want %q", err, want)
			}
			if sess.Window() != 1 {
				t.Fatalf("refused advance moved the window to %d", sess.Window())
			}
		}
		res, err := sess.Advance(steps[0])
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean, after := drive(false), drive(true)
	for j := range clean.Centroids {
		for tt := range clean.Centroids[j] {
			if math.Float64bits(clean.Centroids[j][tt]) != math.Float64bits(after.Centroids[j][tt]) {
				t.Fatalf("a refused NaN slide changed the next window at centroid %d[%d]", j, tt)
			}
		}
	}
}

// TestStreamSessionsAreIndependent is the supported form of several
// studies over one population: one OpenStream per study. Two sessions
// with different K and lifetime budgets read the same input slices and
// advance concurrently; each must disclose exactly what it discloses
// when run alone.
func TestStreamSessionsAreIndependent(t *testing.T) {
	const windows, slide = 3, 2
	initial, steps := streamData(t, 30, 8, windows, slide)
	cfgs := []chiaroscuro.Config{
		{K: 2, LifetimeEpsilon: 60, Windows: windows, WarmStart: true, Seed: 11},
		{K: 4, LifetimeEpsilon: 150, Windows: windows, BudgetStrategy: "decaying", Seed: 11},
	}
	type outcome struct {
		centroids [][][]float64
		budget    chiaroscuro.BudgetReport
		err       error
	}
	drive := func(cfg chiaroscuro.Config) (out outcome) {
		sess, err := chiaroscuro.OpenStream(initial, cfg)
		if err != nil {
			return outcome{err: err}
		}
		defer sess.Close()
		for w := 0; w < windows; w++ {
			var pts [][]float64
			if w > 0 {
				pts = steps[w-1]
			}
			res, err := sess.Advance(pts)
			if err != nil {
				return outcome{err: err}
			}
			out.centroids = append(out.centroids, res.Centroids)
		}
		out.budget = sess.Budget()
		return out
	}

	alone := make([]outcome, len(cfgs))
	for i, cfg := range cfgs {
		alone[i] = drive(cfg)
	}
	together := make([]outcome, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i] = drive(cfg)
		}()
	}
	wg.Wait()

	for i := range cfgs {
		a, b := alone[i], together[i]
		if a.err != nil || b.err != nil {
			t.Fatalf("session %d: alone err %v, concurrent err %v", i, a.err, b.err)
		}
		if a.budget != b.budget {
			t.Fatalf("session %d: budget alone %+v, concurrent %+v", i, a.budget, b.budget)
		}
		for w := range a.centroids {
			for j := range a.centroids[w] {
				for tt := range a.centroids[w][j] {
					if math.Float64bits(a.centroids[w][j][tt]) != math.Float64bits(b.centroids[w][j][tt]) {
						t.Fatalf("session %d window %d: centroid %d[%d] differs when run beside the other session", i, w, j, tt)
					}
				}
			}
		}
	}
	if len(alone[0].centroids[0]) == len(alone[1].centroids[0]) {
		t.Fatal("the two sessions should cluster with different K")
	}
}

// blobStream generates a well-separated three-blob population with a
// slow sinusoidal drift — the regime where early stopping is crisp
// enough to compare warm and cold iteration counts deterministically.
func blobStream(n, dim, windows, slide int) (initial [][]float64, steps [][][]float64) {
	total := dim + windows*slide
	full := make([][]float64, n)
	for i := range full {
		base := 0.12 + 0.72*float64(i%3)/3
		s := make([]float64, total)
		for t := range s {
			v := base + 0.05*math.Sin(2*math.Pi*(float64(t)/float64(total)+float64(i%5)/5)) +
				0.015*float64((i*7+t*3)%5-2)/5
			s[t] = math.Min(1, math.Max(0, v))
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
	return initial, steps
}

// TestStreamWarmStartConvergesFaster is the warm-start gate (bench/'s
// stream-warm workload times the same stream at N=1000): over a drifting
// stream with early stopping, warm-starting every window from the
// previous disclosure spends strictly fewer total k-means iterations
// than cold restarts, at comparable quality. Everything is seeded, so
// the iteration counts are exact, not statistical.
func TestStreamWarmStartConvergesFaster(t *testing.T) {
	const windows, slide = 6, 2
	initial, steps := blobStream(60, 8, windows, slide)

	drive := func(warm bool) (totalIters int, meanInertia float64) {
		t.Helper()
		sess, err := chiaroscuro.OpenStream(initial, chiaroscuro.Config{
			K:                 3,
			Iterations:        10,
			ConvergeThreshold: 0.08,
			LifetimeEpsilon:   2400, // ample: noise far below the stop threshold
			Windows:           windows,
			WarmStart:         warm,
			Seed:              9,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		for w := 0; w < windows; w++ {
			var pts [][]float64
			if w > 0 {
				pts = steps[w-1]
			}
			res, err := sess.Advance(pts)
			if err != nil {
				t.Fatalf("window %d: %v", w, err)
			}
			totalIters += len(res.Trace)
			meanInertia += res.Inertia / windows
		}
		return totalIters, meanInertia
	}

	warmIters, warmInertia := drive(true)
	coldIters, coldInertia := drive(false)
	t.Logf("warm: %d iterations (mean inertia %.4f); cold: %d iterations (mean inertia %.4f)",
		warmIters, warmInertia, coldIters, coldInertia)
	if warmIters >= coldIters {
		t.Fatalf("warm start used %d total iterations, cold %d — want strictly fewer", warmIters, coldIters)
	}
	if warmInertia > coldInertia*1.25 {
		t.Fatalf("warm-start quality regressed: mean inertia %.4f vs cold %.4f", warmInertia, coldInertia)
	}
}
