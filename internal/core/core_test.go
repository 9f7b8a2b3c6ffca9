package core

import (
	"math"
	"strings"
	"testing"

	"chiaroscuro/internal/dp"
)

// blobs builds n series in [0,1]^dim around nblobs well-separated levels.
func blobs(n, dim, nblobs int) [][]float64 {
	data := make([][]float64, n)
	for i := range data {
		base := 0.1 + 0.8*float64(i%nblobs)/float64(nblobs)
		s := make([]float64, dim)
		for t := range s {
			// Small deterministic within-blob spread.
			s[t] = base + 0.02*float64((i*7+t*3)%5-2)/5
		}
		data[i] = s
	}
	return data
}

// openTestRun opens a population over data, binds one run at its
// defaulted params and closes the population when the test ends.
func openTestRun(t *testing.T, data [][]float64, p Params) *runShared {
	t.Helper()
	pop, err := openPopulation(data, p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pop.close)
	r, err := pop.bind(pop.p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunRecoversClustersWithWeakNoise(t *testing.T) {
	data := blobs(300, 4, 3)
	// Blob levels are 0.1, 0.3667, 0.6333; seed the centroids near them
	// so the structural expectations below are deterministic.
	init := [][]float64{
		{0.12, 0.12, 0.12, 0.12},
		{0.4, 0.4, 0.4, 0.4},
		{0.65, 0.65, 0.65, 0.65},
	}
	tr, err := Run(data, Params{K: 3, Epsilon: 1000, Iterations: 4, Seed: 7, InitialCentroids: init})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Iterations) != 4 {
		t.Fatalf("iterations recorded = %d", len(tr.Iterations))
	}
	last := tr.Iterations[3]
	if last.NoiseRMSE > 0.01 {
		t.Fatalf("noise RMSE with ε=1000: %v", last.NoiseRMSE)
	}
	// All three blobs found: counts roughly 1/3 each.
	for j, c := range last.PerturbedCounts {
		if math.Abs(c-1.0/3.0) > 0.05 {
			t.Fatalf("cluster %d perturbed count = %v, want ~1/3", j, c)
		}
	}
	// Inertia should be near the oracle optimum (tight blobs).
	if tr.Inertia > 1.0 {
		t.Fatalf("inertia = %v", tr.Inertia)
	}
}

func TestRunDeterministicGivenSeed(t *testing.T) {
	data := blobs(80, 3, 2)
	p := Params{K: 2, Epsilon: 2, Iterations: 3, Seed: 11}
	a, err := Run(data, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(data, p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Inertia != b.Inertia {
		t.Fatalf("same seed, different inertia: %v vs %v", a.Inertia, b.Inertia)
	}
	for j := range a.FinalCentroids {
		for tt := range a.FinalCentroids[j] {
			if a.FinalCentroids[j][tt] != b.FinalCentroids[j][tt] {
				t.Fatal("same seed, different centroids")
			}
		}
	}
	if a.NetStats != b.NetStats {
		t.Fatalf("same seed, different network stats: %+v vs %+v", a.NetStats, b.NetStats)
	}
}

func TestRunDifferentSeedsDiffer(t *testing.T) {
	data := blobs(80, 3, 2)
	a, _ := Run(data, Params{K: 2, Epsilon: 2, Iterations: 3, Seed: 1})
	b, _ := Run(data, Params{K: 2, Epsilon: 2, Iterations: 3, Seed: 2})
	same := true
	for j := range a.FinalCentroids {
		for tt := range a.FinalCentroids[j] {
			if a.FinalCentroids[j][tt] != b.FinalCentroids[j][tt] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical centroids")
	}
}

func TestBackendsAgreeExactly(t *testing.T) {
	// The plain-accounted backend must reproduce the Damgård–Jurik run
	// bit-for-bit on the decoded floats: both execute identical ring
	// arithmetic, and the simulation RNG streams are the same.
	data := blobs(16, 3, 2)
	base := Params{
		K: 2, Epsilon: 100, Iterations: 2, Seed: 5,
		GossipRounds: 8, DecryptThreshold: 4,
	}
	pPlain := base
	pPlain.Backend = BackendPlainAccounted
	pPlain.ModulusBits = 256 // plaintext ring 2^256-1
	pDJ := base
	pDJ.Backend = BackendDamgardJurik
	pDJ.ModulusBits = 256 // plaintext ring n (~2^256)

	trP, err := Run(data, pPlain)
	if err != nil {
		t.Fatal(err)
	}
	trD, err := Run(data, pDJ)
	if err != nil {
		t.Fatal(err)
	}
	for j := range trP.FinalCentroids {
		for tt := range trP.FinalCentroids[j] {
			a, b := trP.FinalCentroids[j][tt], trD.FinalCentroids[j][tt]
			if math.Abs(a-b) > 1e-9 {
				t.Fatalf("backends disagree at centroid %d[%d]: %v vs %v", j, tt, a, b)
			}
		}
	}
	if trD.Ops.PartialDecrypts == 0 || trD.Ops.Encrypts == 0 {
		t.Fatalf("real backend did no crypto: %+v", trD.Ops)
	}
}

func TestEpsilonScheduleFollowsStrategy(t *testing.T) {
	data := blobs(60, 3, 2)
	tr, err := Run(data, Params{
		K: 2, Epsilon: 1, Iterations: 4, Seed: 3,
		Strategy: dp.GeometricIncreasing{Ratio: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// ε_i ∝ 2^i with total 1: 1/15, 2/15, 4/15, 8/15.
	want := []float64{1.0 / 15, 2.0 / 15, 4.0 / 15, 8.0 / 15}
	for i, it := range tr.Iterations {
		if math.Abs(it.Epsilon-want[i]) > 1e-12 {
			t.Fatalf("iteration %d ε = %v, want %v", i, it.Epsilon, want[i])
		}
	}
	if math.Abs(tr.Privacy.Spent-1) > 1e-9 {
		t.Fatalf("spent = %v, want full budget", tr.Privacy.Spent)
	}
}

func TestMoreEpsilonLessNoise(t *testing.T) {
	// Across a 100x budget change the average noise impact must drop.
	data := blobs(200, 4, 2)
	noisy, err := Run(data, Params{K: 2, Epsilon: 0.5, Iterations: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Run(data, Params{K: 2, Epsilon: 50, Iterations: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	avg := func(tr *Trace) float64 {
		var s float64
		for _, it := range tr.Iterations {
			s += it.NoiseRMSE
		}
		return s / float64(len(tr.Iterations))
	}
	if avg(clean) >= avg(noisy) {
		t.Fatalf("ε=50 noise (%v) not below ε=0.5 noise (%v)", avg(clean), avg(noisy))
	}
}

func TestSmoothingReducesNoise(t *testing.T) {
	// With longer series (noise iid per coordinate, signal constant) the
	// moving average must cut the measured noise RMSE. Moderate noise:
	// large enough to matter, small enough not to saturate the [0,1]
	// clamp (where no linear filter can help).
	data := blobs(150, 24, 2)
	base := Params{K: 2, Epsilon: 30, Iterations: 3, Seed: 13}
	raw, err := Run(data, base)
	if err != nil {
		t.Fatal(err)
	}
	smoothed := base
	smoothed.Smoothing = SmoothingSpec{Method: SmoothingMovingAverage, Window: 5}
	sm, err := Run(data, smoothed)
	if err != nil {
		t.Fatal(err)
	}
	avg := func(tr *Trace) float64 {
		var s float64
		for _, it := range tr.Iterations {
			s += it.NoiseRMSE
		}
		return s / float64(len(tr.Iterations))
	}
	if avg(sm) >= avg(raw) {
		t.Fatalf("smoothing did not reduce noise: %v vs %v", avg(sm), avg(raw))
	}
}

func TestConvergenceEarlyStop(t *testing.T) {
	// Huge ε + tight blobs + loose threshold: should stop before the
	// iteration cap.
	data := blobs(200, 3, 2)
	tr, err := Run(data, Params{
		K: 2, Epsilon: 5000, Iterations: 10, Seed: 17,
		ConvergeThreshold: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.ConvergedAtIteration < 0 {
		t.Fatal("expected early convergence")
	}
	if len(tr.Iterations) >= 10 {
		t.Fatalf("ran %d iterations despite convergence", len(tr.Iterations))
	}
	// Early stop keeps unspent budget.
	if tr.Privacy.Spent >= tr.Privacy.Total {
		t.Fatalf("early stop should leave budget: %+v", tr.Privacy)
	}
}

func TestChurnRunCompletes(t *testing.T) {
	data := blobs(150, 3, 2)
	tr, err := Run(data, Params{
		K: 2, Epsilon: 100, Iterations: 3, Seed: 19,
		Faults: mustPlan(t, "churn=0.02/0.3"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NetStats.Crashes == 0 {
		t.Fatal("expected some crashes")
	}
	if len(tr.Iterations) == 0 {
		t.Fatal("no iterations completed under churn")
	}
	// Quality degrades gracefully, not catastrophically.
	if tr.Iterations[len(tr.Iterations)-1].NoiseRMSE > 0.5 {
		t.Fatalf("noise RMSE under churn = %v", tr.Iterations[len(tr.Iterations)-1].NoiseRMSE)
	}
}

func TestHeavyChurnDegradesButReports(t *testing.T) {
	data := blobs(100, 3, 2)
	tr, err := Run(data, Params{
		K: 2, Epsilon: 100, Iterations: 2, Seed: 23,
		Faults: mustPlan(t, "churn=0.1/0.2"), DecryptThreshold: 20,
		DecryptWindow: 2,
	})
	if err != nil {
		// Acceptable: the network can be too hostile to finish.
		if !strings.Contains(err.Error(), "hostile") {
			t.Fatalf("unexpected error: %v", err)
		}
		return
	}
	// If it finished, sanity: stats reflect the chaos.
	if tr.NetStats.Crashes == 0 {
		t.Fatal("no crashes under 10% churn")
	}
}

func TestValidationErrors(t *testing.T) {
	good := blobs(20, 3, 2)
	cases := []struct {
		name string
		data [][]float64
		p    Params
		want string // the pinned error text, when set
	}{
		{"too few participants", blobs(1, 3, 1), Params{K: 1, Epsilon: 1}, ""},
		{"k too large", good, Params{K: 21, Epsilon: 1}, ""},
		{"k zero", good, Params{K: 0, Epsilon: 1}, ""},
		{"epsilon zero", good, Params{K: 2, Epsilon: 0}, ""},
		{"epsilon NaN", good, Params{K: 2, Epsilon: math.NaN()}, ""},
		{"epsilon infinite", good, Params{K: 2, Epsilon: math.Inf(1)}, ""},
		{"bad initial count", good, Params{K: 2, Epsilon: 1, InitialCentroids: [][]float64{{0, 0, 0}}}, ""},
		{"bad initial dim", good, Params{K: 2, Epsilon: 1, InitialCentroids: [][]float64{{0}, {0}}}, ""},
		{"threshold too large", good, Params{K: 2, Epsilon: 1, DecryptThreshold: 20}, ""},
		{"negative decrypt window", good, Params{K: 2, Epsilon: 1, DecryptWindow: -1},
			"core: decrypt window -1 < 1"},
		{"max value infinite", good, Params{K: 2, Epsilon: 1, MaxValue: math.Inf(1)},
			"core: max value +Inf must be positive and finite"},
		{"max value NaN", good, Params{K: 2, Epsilon: 1, MaxValue: math.NaN()},
			"core: max value NaN must be positive and finite"},
		{"converge threshold NaN", good, Params{K: 2, Epsilon: 1, ConvergeThreshold: math.NaN()},
			"core: converge threshold NaN must be non-negative and finite"},
		{"converge threshold negative", good, Params{K: 2, Epsilon: 1, ConvergeThreshold: -1},
			"core: converge threshold -1 must be non-negative and finite"},
		{"inertia stop threshold NaN", good, Params{K: 2, Epsilon: 1, TrackInertia: true, InertiaStopThreshold: math.NaN()},
			"core: inertia stop threshold NaN must be non-negative and finite"},
		{"inertia stop threshold infinite", good, Params{K: 2, Epsilon: 1, TrackInertia: true, InertiaStopThreshold: math.Inf(1)},
			"core: inertia stop threshold +Inf must be non-negative and finite"},
	}
	for _, tc := range cases {
		_, err := Run(tc.data, tc.p)
		switch {
		case err == nil:
			t.Errorf("%s: expected error", tc.name)
		case tc.want != "" && err.Error() != tc.want:
			t.Errorf("%s: error %q, want %q", tc.name, err, tc.want)
		}
	}
}

func TestDataOutsideDomainRejected(t *testing.T) {
	data := blobs(20, 3, 2)
	data[5][1] = 1.5
	if _, err := Run(data, Params{K: 2, Epsilon: 1}); err == nil {
		t.Fatal("out-of-domain value should be rejected")
	}
	data[5][1] = -0.2
	if _, err := Run(data, Params{K: 2, Epsilon: 1}); err == nil {
		t.Fatal("negative value should be rejected")
	}
}

func TestRaggedDataRejected(t *testing.T) {
	data := [][]float64{{0.1, 0.2}, {0.3}}
	if _, err := Run(data, Params{K: 1, Epsilon: 1}); err == nil {
		t.Fatal("ragged data should be rejected")
	}
}

func TestHeadroomValidation(t *testing.T) {
	// A tiny plaintext ring cannot absorb the aggregate: must error out
	// with the actionable headroom message, not corrupt silently.
	data := blobs(100, 8, 2)
	_, err := Run(data, Params{
		K: 2, Epsilon: 0.01, Iterations: 8, Seed: 1,
		Backend: BackendDamgardJurik, ModulusBits: 64, DecryptThreshold: 3,
	})
	if err == nil || !strings.Contains(err.Error(), "plaintext space too small") {
		t.Fatalf("err = %v, want headroom error", err)
	}
}

func TestProvidedInitialCentroidsUsed(t *testing.T) {
	data := blobs(60, 3, 2)
	init := [][]float64{{0.2, 0.2, 0.2}, {0.8, 0.8, 0.8}}
	tr, err := Run(data, Params{
		K: 2, Epsilon: 2000, Iterations: 1, Seed: 29,
		InitialCentroids: init,
	})
	if err != nil {
		t.Fatal(err)
	}
	// After one nearly noise-free iteration from this init, the two
	// centroids must have separated onto the two blob levels.
	c0 := tr.FinalCentroids[0][0]
	c1 := tr.FinalCentroids[1][0]
	if !(c0 < 0.5 && c1 > 0.5) {
		t.Fatalf("centroids did not split around the blobs: %v, %v", c0, c1)
	}
}

func TestEmptyClusterKeepsCentroid(t *testing.T) {
	// One centroid starts far from all data and must keep its position
	// (perturbed count ~ 0 -> keep-previous policy), modulo smoothing off.
	data := make([][]float64, 50)
	for i := range data {
		data[i] = []float64{0.1, 0.1}
	}
	init := [][]float64{{0.1, 0.1}, {0.95, 0.95}}
	tr, err := Run(data, Params{
		K: 2, Epsilon: 5000, Iterations: 2, Seed: 31,
		InitialCentroids: init,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.FinalCentroids[1][0]-0.95) > 1e-9 {
		t.Fatalf("empty cluster centroid moved: %v", tr.FinalCentroids[1])
	}
}

func TestOpsCountedInPlainBackend(t *testing.T) {
	data := blobs(40, 3, 2)
	p := Params{K: 2, Epsilon: 10, Iterations: 2, Seed: 37, GossipRounds: 6}
	tr, err := Run(data, p)
	if err != nil {
		t.Fatal(err)
	}
	// The encrypted side's k·(dim+1) coordinates travel in
	// ⌈k·(dim+1)/slots⌉ ciphertexts, over the 1023 usable bits of the
	// default 1024-bit key's ring.
	slots, err := PackedSlots(1023, 40, 3, p)
	if err != nil {
		t.Fatal(err)
	}
	side := int64((2*(3+1) + slots - 1) / slots)
	// Every participant encrypts its one side per iteration, and
	// nothing else encrypts: setup performs no probe encryption (the
	// cipher ring needs no cached zero), so the count is exact.
	wantEnc := 40 * 2 * side
	if tr.Ops.Encrypts != wantEnc {
		t.Fatalf("encrypts = %d, want %d", tr.Ops.Encrypts, wantEnc)
	}
	if tr.Ops.Refreshes == 0 || tr.Ops.Adds == 0 || tr.Ops.PartialDecrypts == 0 || tr.Ops.Combines == 0 {
		t.Fatalf("ops not counted: %+v", tr.Ops)
	}
	// Every participant emits its side-cipher vector once per gossip
	// round: that many halvings by the exponent, each refreshing the sent
	// copy, none performed inside a ciphertext.
	if want := 40 * 2 * 6 * side; tr.Ops.Refreshes != want || tr.Ops.Halvings != want {
		t.Fatalf("refreshes = %d, halvings = %d, want %d each", tr.Ops.Refreshes, tr.Ops.Halvings, want)
	}
}

func TestTraceOracleConsistency(t *testing.T) {
	data := blobs(120, 4, 3)
	tr, err := Run(data, Params{K: 3, Epsilon: 500, Iterations: 3, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range tr.Iterations {
		if it.Iteration != i {
			t.Fatalf("iteration numbering: %d at %d", it.Iteration, i)
		}
		total := 0
		for _, c := range it.ExactCounts {
			total += c
		}
		if total != 120 {
			t.Fatalf("iteration %d exact counts sum to %d", i, total)
		}
		if len(it.PerturbedCentroids) != 3 || len(it.ExactCentroids) != 3 {
			t.Fatalf("iteration %d centroid counts", i)
		}
		if it.NoiseRMSE < 0 {
			t.Fatalf("negative noise RMSE")
		}
	}
}

func TestGossipErrorRecorded(t *testing.T) {
	data := blobs(60, 3, 2)
	tr, err := Run(data, Params{K: 2, Epsilon: 100, Iterations: 2, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if tr.GossipRelErr <= 0 {
		t.Fatalf("gossip error not recorded: %v", tr.GossipRelErr)
	}
	if tr.GossipRelErr > 0.2 {
		t.Fatalf("gossip error suspiciously large: %v", tr.GossipRelErr)
	}
}
