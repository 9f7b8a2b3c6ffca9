package chiaroscuro

import (
	"math"
	"strings"
	"testing"
)

func TestClusterEndToEndCER(t *testing.T) {
	series, labels, names := SyntheticCER(400, 12, 42)
	if len(series) != 400 || len(labels) != 400 || len(names) == 0 {
		t.Fatal("generator shape")
	}
	if _, _, err := Normalize01(series); err != nil {
		t.Fatal(err)
	}
	res, err := Cluster(series, Config{
		K:          5,
		Epsilon:    4,
		Iterations: 5,
		Seed:       1,
		Smoothing:  Smoothing{Method: "moving-average", Window: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 5 {
		t.Fatalf("centroids = %d", len(res.Centroids))
	}
	if len(res.Assignments) != 400 {
		t.Fatalf("assignments = %d", len(res.Assignments))
	}
	if len(res.Trace) != 5 {
		t.Fatalf("trace length = %d", len(res.Trace))
	}
	if res.Privacy.EpsilonSpent <= 0 || res.Privacy.EpsilonSpent > 4+1e-9 {
		t.Fatalf("privacy report: %+v", res.Privacy)
	}
	if res.Network.MessagesSent == 0 || res.Network.BytesSent == 0 {
		t.Fatalf("network report: %+v", res.Network)
	}
	if res.Crypto.Encrypts == 0 {
		t.Fatalf("crypto report: %+v", res.Crypto)
	}

	// Quality vs centralized baseline on the same init must be sane.
	base, err := CentralizedKMeans(series, 5, 20, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ratio, rmse, ari, err := CompareToBaseline(res, base)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 0.5 || ratio > 5 {
		t.Fatalf("inertia ratio = %v, implausible", ratio)
	}
	if rmse < 0 || math.IsNaN(rmse) {
		t.Fatalf("rmse = %v", rmse)
	}
	if ari < -0.2 || ari > 1 {
		t.Fatalf("ari = %v", ari)
	}
}

func TestClusterConfigValidation(t *testing.T) {
	series, _, _ := SyntheticCER(20, 8, 1)
	_, _, _ = Normalize01(series)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"missing K", Config{Epsilon: 1}},
		{"missing epsilon", Config{K: 2}},
		{"bad strategy", Config{K: 2, Epsilon: 1, Strategy: "nope"}},
		{"bad smoothing", Config{K: 2, Epsilon: 1, Smoothing: Smoothing{Method: "fft"}}},
		{"bad backend", Config{K: 2, Epsilon: 1, Backend: "rot13"}},
	}
	for _, tc := range cases {
		if _, err := Cluster(series, tc.cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestClusterRejectsUnnormalizedData(t *testing.T) {
	series, _, _ := SyntheticCER(30, 8, 2) // raw kW values, some > 1
	_, err := Cluster(series, Config{K: 2, Epsilon: 1})
	if err == nil || !strings.Contains(err.Error(), "normalize") {
		t.Fatalf("err = %v, want normalization hint", err)
	}
}

func TestClusterRealCryptoSmall(t *testing.T) {
	series, _, _ := SyntheticTumorGrowth(14, 10, 3)
	_, _, _ = Normalize01(series)
	res, err := Cluster(series, Config{
		K: 2, Epsilon: 50, Iterations: 2, Seed: 5,
		Backend: BackendDamgardJurik, ModulusBits: 128,
		DecryptThreshold: 4, GossipRounds: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crypto.PartialDecrypts == 0 || res.Crypto.Combines == 0 {
		t.Fatalf("no threshold decryptions recorded: %+v", res.Crypto)
	}
}

func TestStrategiesAllAccepted(t *testing.T) {
	series, _, _ := SyntheticCER(60, 6, 4)
	_, _, _ = Normalize01(series)
	for _, s := range []string{"", "uniform", "geo-increasing", "geo-decreasing", "final-boost"} {
		if _, err := Cluster(series, Config{K: 2, Epsilon: 2, Iterations: 2, Seed: 1, Strategy: s, GossipRounds: 8}); err != nil {
			t.Errorf("strategy %q: %v", s, err)
		}
	}
}

func TestFindClosestProfiles(t *testing.T) {
	profiles := [][]float64{
		{0, 0, 0, 0, 0},
		{0, 1, 2, 1, 0},
		{5, 5, 5, 5, 5},
	}
	matches, err := FindClosestProfiles(profiles, []float64{1, 2, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 || matches[0].Profile != 1 || matches[0].Distance != 0 || matches[0].Offset != 1 {
		t.Fatalf("matches = %+v", matches)
	}
	if _, err := FindClosestProfiles(nil, []float64{1}, 1); err == nil {
		t.Fatal("empty profiles should error")
	}
}

func TestNormalize01RoundTrip(t *testing.T) {
	series := [][]float64{{10, 20}, {30, 40}}
	offset, scale, err := Normalize01(series)
	if err != nil {
		t.Fatal(err)
	}
	if offset != 10 || math.Abs(scale-1.0/30) > 1e-12 {
		t.Fatalf("offset=%v scale=%v", offset, scale)
	}
	if series[0][0] != 0 || series[1][1] != 1 {
		t.Fatalf("normalized = %v", series)
	}
	if _, _, err := Normalize01(nil); err == nil {
		t.Fatal("empty input should error")
	}
}

func TestCentralizedKMeansProvidedInit(t *testing.T) {
	series := [][]float64{{0}, {0.1}, {0.9}, {1}}
	init := [][]float64{{0.05}, {0.95}}
	res, err := CentralizedKMeans(series, 2, 10, 1, init)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignments[0] != res.Assignments[1] || res.Assignments[2] != res.Assignments[3] {
		t.Fatalf("assignments = %v", res.Assignments)
	}
	if res.Assignments[0] == res.Assignments[2] {
		t.Fatal("clusters merged")
	}
}

func TestCompareToBaselineNil(t *testing.T) {
	if _, _, _, err := CompareToBaseline(nil, nil); err == nil {
		t.Fatal("nil inputs should error")
	}
}

func TestConvergedRunReportedInResult(t *testing.T) {
	series, _, _ := SyntheticCER(150, 8, 9)
	_, _, _ = Normalize01(series)
	res, err := Cluster(series, Config{
		K: 3, Epsilon: 2000, Iterations: 12, Seed: 2,
		ConvergeThreshold: 0.05, GossipRounds: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergedAtIteration < 0 {
		t.Skip("did not converge early on this seed — acceptable, covered in core tests")
	}
	if len(res.Trace) >= 12 {
		t.Fatalf("converged but trace has %d entries", len(res.Trace))
	}
}

func TestSyntheticGeneratorsDisjointSeeds(t *testing.T) {
	a, _, _ := SyntheticTumorGrowth(10, 12, 1)
	b, _, _ := SyntheticTumorGrowth(10, 12, 2)
	same := true
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds gave identical tumor data")
	}
}

func TestScaleEpsilonForPopulation(t *testing.T) {
	eps, err := ScaleEpsilonForPopulation(2, 1000000, 500)
	if err != nil || eps != 4000 {
		t.Fatalf("eps = %v, err = %v", eps, err)
	}
	// Identity when target == sim.
	eps, err = ScaleEpsilonForPopulation(1.5, 300, 300)
	if err != nil || eps != 1.5 {
		t.Fatalf("identity scaling = %v", eps)
	}
	if _, err := ScaleEpsilonForPopulation(0, 10, 10); err == nil {
		t.Fatal("zero epsilon should error")
	}
	if _, err := ScaleEpsilonForPopulation(1, 0, 10); err == nil {
		t.Fatal("zero target population should error")
	}
	if _, err := ScaleEpsilonForPopulation(1, 10, 0); err == nil {
		t.Fatal("zero sim population should error")
	}
}

func TestLevelInitPublicAPI(t *testing.T) {
	init := LevelInit(2, 4)
	if len(init) != 2 || len(init[0]) != 4 {
		t.Fatalf("shape %v", init)
	}
	if init[0][0] != 0.25 || init[1][3] != 0.75 {
		t.Fatalf("levels %v", init)
	}
}

func TestTrackInertiaPublicAPI(t *testing.T) {
	series, _, _ := SyntheticCER(80, 8, 3)
	_, _, _ = Normalize01(series)
	res, err := Cluster(series, Config{
		K: 3, Epsilon: 2000, Iterations: 6, Seed: 1,
		TrackInertia: true, InertiaStopThreshold: 0.03, GossipRounds: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	last := res.Trace[len(res.Trace)-1]
	if math.IsNaN(last.InertiaEstimate) {
		t.Fatal("no inertia estimate in public trace")
	}
}

// TestClusterWithFaultScenario drives the public fault-injection
// surface: a scenario spec conditions the network and schedules node
// faults, the run survives, the fault counters surface in the result,
// and an identical re-run reproduces the identical disclosure.
func TestClusterWithFaultScenario(t *testing.T) {
	series, _, _ := SyntheticCER(80, 12, 7)
	if _, _, err := Normalize01(series); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		K: 3, Epsilon: 20, Iterations: 3, Seed: 7,
		Faults: "drop=0.1;dup=0.05;delay=0.2x3;outage@4+6=1,2:reset;lag@3+5=3;garble=4;malform=5",
	}
	res, err := Cluster(series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Network.FaultDropped == 0 || res.Network.Duplicated == 0 || res.Network.Delayed == 0 {
		t.Fatalf("scenario injected nothing: %+v", res.Network)
	}
	if res.Completed == 0 || res.Completed > len(series) {
		t.Fatalf("implausible liveness %d/%d", res.Completed, len(series))
	}
	// Same spec + seed on the sharded engine: identical disclosure.
	cfg.Engine = "sharded"
	cfg.Workers = 3
	res2, err := Cluster(series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for j := range res.Centroids {
		for tt := range res.Centroids[j] {
			if res.Centroids[j][tt] != res2.Centroids[j][tt] {
				t.Fatalf("faulted run not reproducible across engines at centroid %d[%d]", j, tt)
			}
		}
	}
}

// TestClusterFaultSpecValidation: malformed or out-of-population specs
// fail fast with a parse/validation error.
func TestClusterFaultSpecValidation(t *testing.T) {
	series, _, _ := SyntheticCER(20, 8, 1)
	if _, _, err := Normalize01(series); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"nonsense", "drop=2", "crash@1=999"} {
		cfg := Config{K: 2, Epsilon: 5, Iterations: 2, Seed: 1, Faults: spec}
		if _, err := Cluster(series, cfg); err == nil {
			t.Errorf("spec %q: expected error", spec)
		}
	}
}
