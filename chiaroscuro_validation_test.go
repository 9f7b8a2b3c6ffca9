package chiaroscuro_test

import (
	"math"
	"testing"

	"chiaroscuro"
)

// TestConfigValidationErrors pins the exact error text of every public
// Config validation path — the messages are part of the API surface
// users script against, so a wording change should be a conscious one.
func TestConfigValidationErrors(t *testing.T) {
	series, _, _, err := chiaroscuro.SyntheticCERErr(20, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := chiaroscuro.Normalize01(series); err != nil {
		t.Fatal(err)
	}
	withNaN := nanAt(series, 3, 5)

	cases := []struct {
		name string
		cfg  chiaroscuro.Config
		data [][]float64 // nil: series
		want string
	}{
		{
			name: "NaN series value",
			cfg:  chiaroscuro.Config{K: 3, Epsilon: 1},
			data: withNaN,
			want: "core: participant 3 value NaN at 5 outside [0, 1] — normalize first",
		},
		{
			name: "unknown engine",
			cfg:  chiaroscuro.Config{K: 3, Epsilon: 1, Engine: "warp"},
			want: `chiaroscuro: unknown engine "warp" (want cycles or sharded)`,
		},
		{
			name: "async engine",
			cfg:  chiaroscuro.Config{K: 3, Epsilon: 1, Engine: "async"},
			want: `chiaroscuro: unknown engine "async" (want cycles or sharded)`,
		},
		{
			name: "malformed faults clause",
			cfg:  chiaroscuro.Config{K: 3, Epsilon: 1, Faults: "bogus"},
			want: `chiaroscuro: Config.Faults: simnet: clause "bogus" is not key=value`,
		},
		{
			name: "fault probability out of range",
			cfg:  chiaroscuro.Config{K: 3, Epsilon: 1, Faults: "drop=2"},
			want: `chiaroscuro: Config.Faults: simnet: bad probability "2"`,
		},
		{
			name: "churn probability NaN",
			cfg:  chiaroscuro.Config{K: 3, Epsilon: 1, Faults: "churn=0.1/NaN"},
			want: `chiaroscuro: Config.Faults: simnet: bad probability "NaN"`,
		},
		{
			name: "missing K",
			cfg:  chiaroscuro.Config{Epsilon: 1},
			want: "chiaroscuro: Config.K is required",
		},
		{
			name: "negative epsilon",
			cfg:  chiaroscuro.Config{K: 3, Epsilon: -0.5},
			want: "chiaroscuro: Config.Epsilon must be positive and finite",
		},
		{
			name: "zero epsilon",
			cfg:  chiaroscuro.Config{K: 3},
			want: "chiaroscuro: Config.Epsilon must be positive and finite",
		},
		{
			name: "NaN epsilon",
			cfg:  chiaroscuro.Config{K: 3, Epsilon: math.NaN()},
			want: "chiaroscuro: Config.Epsilon must be positive and finite",
		},
		{
			name: "infinite epsilon",
			cfg:  chiaroscuro.Config{K: 3, Epsilon: math.Inf(1)},
			want: "chiaroscuro: Config.Epsilon must be positive and finite",
		},
		{
			name: "initial centroid dimension mismatch",
			cfg: chiaroscuro.Config{K: 3, Epsilon: 1,
				InitialCentroids: [][]float64{{1, 2}, {3, 4}, {5, 6}}},
			want: "core: initial centroid 0 has dim 2, want 8",
		},
		{
			name: "initial centroid count mismatch",
			cfg: chiaroscuro.Config{K: 3, Epsilon: 1,
				InitialCentroids: [][]float64{{0.1, 0.2}}},
			want: "core: 1 initial centroids, want 3",
		},
		{
			name: "negative workers",
			cfg:  chiaroscuro.Config{K: 3, Epsilon: 1, Workers: -2},
			want: "chiaroscuro: Config.Workers must be non-negative, got -2",
		},
		{
			name: "unknown strategy",
			cfg:  chiaroscuro.Config{K: 3, Epsilon: 1, Strategy: "nope"},
			want: `dp: unknown budget strategy "nope"`,
		},
		{
			name: "unknown smoothing method",
			cfg:  chiaroscuro.Config{K: 3, Epsilon: 1, Smoothing: chiaroscuro.Smoothing{Method: "box"}},
			want: `chiaroscuro: unknown smoothing method "box"`,
		},
		{
			name: "exponential smoothing alpha above 1",
			cfg:  chiaroscuro.Config{K: 3, Epsilon: 1, Smoothing: chiaroscuro.Smoothing{Method: "exponential", Alpha: 1.5}},
			want: "core: exponential smoothing alpha 1.5 outside (0, 1]",
		},
		{
			name: "negative exponential smoothing alpha",
			cfg:  chiaroscuro.Config{K: 3, Epsilon: 1, Smoothing: chiaroscuro.Smoothing{Method: "exponential", Alpha: -0.5}},
			want: "core: exponential smoothing alpha -0.5 outside (0, 1]",
		},
		{
			name: "NaN exponential smoothing alpha",
			cfg:  chiaroscuro.Config{K: 3, Epsilon: 1, Smoothing: chiaroscuro.Smoothing{Method: "exponential", Alpha: math.NaN()}},
			want: "core: exponential smoothing alpha NaN outside (0, 1]",
		},
		{
			name: "negative moving-average window",
			cfg:  chiaroscuro.Config{K: 3, Epsilon: 1, Smoothing: chiaroscuro.Smoothing{Method: "moving-average", Window: -3}},
			want: "core: moving-average smoothing window -3 < 1",
		},
		{
			name: "unknown backend",
			cfg:  chiaroscuro.Config{K: 3, Epsilon: 1, Backend: "rot13"},
			want: `chiaroscuro: unknown backend "rot13"`,
		},
		{
			name: "lifetime epsilon on one-shot",
			cfg:  chiaroscuro.Config{K: 3, Epsilon: 1, LifetimeEpsilon: 8},
			want: "chiaroscuro: Config.LifetimeEpsilon is a streaming option — use OpenStream",
		},
		{
			name: "windows on one-shot",
			cfg:  chiaroscuro.Config{K: 3, Epsilon: 1, Windows: 4},
			want: "chiaroscuro: Config.Windows is a streaming option — use OpenStream",
		},
		{
			name: "warm start on one-shot",
			cfg:  chiaroscuro.Config{K: 3, Epsilon: 1, WarmStart: true},
			want: "chiaroscuro: Config.WarmStart is a streaming option — use OpenStream",
		},
		{
			name: "budget strategy on one-shot",
			cfg:  chiaroscuro.Config{K: 3, Epsilon: 1, BudgetStrategy: "uniform"},
			want: "chiaroscuro: Config.BudgetStrategy is a streaming option — use OpenStream",
		},
		{
			name: "drift threshold on one-shot",
			cfg:  chiaroscuro.Config{K: 3, Epsilon: 1, DriftThreshold: 0.1},
			want: "chiaroscuro: Config.DriftThreshold is a streaming option — use OpenStream",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := series
			if tc.data != nil {
				data = tc.data
			}
			_, err := chiaroscuro.Cluster(data, tc.cfg)
			if err == nil {
				t.Fatalf("want error %q, got success", tc.want)
			}
			if err.Error() != tc.want {
				t.Fatalf("error text:\n  got:  %s\n  want: %s", err, tc.want)
			}
		})
	}
}

// TestStreamConfigValidationErrors pins the exact error text of every
// OpenStream validation path, in the same spirit as the one-shot table
// above: the streaming fields are new public API, and their refusals
// are part of the contract.
func TestStreamConfigValidationErrors(t *testing.T) {
	series, _, _, err := chiaroscuro.SyntheticCERErr(20, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := chiaroscuro.Normalize01(series); err != nil {
		t.Fatal(err)
	}
	withNaN := nanAt(series, 3, 5)

	cases := []struct {
		name string
		cfg  chiaroscuro.Config
		data [][]float64 // nil: series
		want string
	}{
		{
			name: "NaN series value",
			cfg:  chiaroscuro.Config{K: 3, LifetimeEpsilon: 8},
			data: withNaN,
			want: "core: participant 3 value NaN at 5 outside [0, 1] — normalize first",
		},
		{
			name: "epsilon set on stream",
			cfg:  chiaroscuro.Config{K: 3, Epsilon: 1, LifetimeEpsilon: 8},
			want: "chiaroscuro: streaming draws each window's epsilon from Config.LifetimeEpsilon — leave Config.Epsilon zero",
		},
		{
			name: "missing lifetime epsilon",
			cfg:  chiaroscuro.Config{K: 3},
			want: "chiaroscuro: Config.LifetimeEpsilon must be positive for streaming",
		},
		{
			name: "negative lifetime epsilon",
			cfg:  chiaroscuro.Config{K: 3, LifetimeEpsilon: -2},
			want: "chiaroscuro: Config.LifetimeEpsilon must be positive for streaming",
		},
		{
			name: "negative windows",
			cfg:  chiaroscuro.Config{K: 3, LifetimeEpsilon: 8, Windows: -1},
			want: "chiaroscuro: Config.Windows must be non-negative, got -1",
		},
		{
			name: "negative drift threshold",
			cfg:  chiaroscuro.Config{K: 3, LifetimeEpsilon: 8, BudgetStrategy: "threshold", DriftThreshold: -0.1},
			want: "chiaroscuro: Config.DriftThreshold must be non-negative, got -0.1",
		},
		{
			name: "drift threshold without threshold strategy",
			cfg:  chiaroscuro.Config{K: 3, LifetimeEpsilon: 8, DriftThreshold: 0.1},
			want: `chiaroscuro: Config.DriftThreshold applies to the "threshold" budget strategy only`,
		},
		{
			name: "unknown budget strategy",
			cfg:  chiaroscuro.Config{K: 3, LifetimeEpsilon: 8, BudgetStrategy: "lavish"},
			want: `dp: unknown spend strategy "lavish" (want uniform, decaying or threshold)`,
		},
		{
			name: "async engine",
			cfg:  chiaroscuro.Config{K: 3, LifetimeEpsilon: 8, Engine: "async"},
			want: `chiaroscuro: unknown engine "async" (want cycles or sharded)`,
		},
		{
			name: "unknown engine",
			cfg:  chiaroscuro.Config{K: 3, LifetimeEpsilon: 8, Engine: "warp"},
			want: `chiaroscuro: unknown engine "warp" (want cycles or sharded)`,
		},
		{
			name: "faults on stream",
			cfg:  chiaroscuro.Config{K: 3, LifetimeEpsilon: 8, Faults: "drop=0.05"},
			want: "chiaroscuro: Config.Faults is not supported in streaming sessions yet",
		},
		{
			name: "churn on stream",
			cfg:  chiaroscuro.Config{K: 3, LifetimeEpsilon: 8, Faults: "churn=0.1/0"},
			want: "chiaroscuro: Config.Faults is not supported in streaming sessions yet",
		},
		{
			name: "exponential smoothing alpha above 1",
			cfg:  chiaroscuro.Config{K: 3, LifetimeEpsilon: 8, Smoothing: chiaroscuro.Smoothing{Method: "exponential", Alpha: 1.5}},
			want: "core: exponential smoothing alpha 1.5 outside (0, 1]",
		},
		{
			name: "negative exponential smoothing alpha",
			cfg:  chiaroscuro.Config{K: 3, LifetimeEpsilon: 8, Smoothing: chiaroscuro.Smoothing{Method: "exponential", Alpha: -0.5}},
			want: "core: exponential smoothing alpha -0.5 outside (0, 1]",
		},
		{
			name: "NaN exponential smoothing alpha",
			cfg:  chiaroscuro.Config{K: 3, LifetimeEpsilon: 8, Smoothing: chiaroscuro.Smoothing{Method: "exponential", Alpha: math.NaN()}},
			want: "core: exponential smoothing alpha NaN outside (0, 1]",
		},
		{
			name: "negative moving-average window",
			cfg:  chiaroscuro.Config{K: 3, LifetimeEpsilon: 8, Smoothing: chiaroscuro.Smoothing{Method: "moving-average", Window: -3}},
			want: "core: moving-average smoothing window -3 < 1",
		},
		{
			name: "missing K",
			cfg:  chiaroscuro.Config{LifetimeEpsilon: 8},
			want: "chiaroscuro: Config.K is required",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := series
			if tc.data != nil {
				data = tc.data
			}
			sess, err := chiaroscuro.OpenStream(data, tc.cfg)
			if err == nil {
				sess.Close()
				t.Fatalf("want error %q, got success", tc.want)
			}
			if err.Error() != tc.want {
				t.Fatalf("error text:\n  got:  %s\n  want: %s", err, tc.want)
			}
		})
	}
}

// nanAt returns a copy of series with series[i][t] set to NaN. A NaN
// compares false against both ends of the value range, so a range check
// must be written to reject it explicitly.
func nanAt(series [][]float64, i, t int) [][]float64 {
	out := make([][]float64, len(series))
	for j, s := range series {
		out[j] = append([]float64(nil), s...)
	}
	out[i][t] = math.NaN()
	return out
}

// TestChurnStillSupportedOnCycleEngines guards the one-shot churn path:
// both engines accept churn (streaming sessions refuse it, above).
func TestChurnStillSupportedOnCycleEngines(t *testing.T) {
	series, _, _, err := chiaroscuro.SyntheticCERErr(30, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := chiaroscuro.Normalize01(series); err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"cycles", "sharded"} {
		res, err := chiaroscuro.Cluster(series, chiaroscuro.Config{
			K: 2, Epsilon: 20, Iterations: 2, Seed: 5, Engine: engine,
			GossipRounds: 8, DecryptThreshold: 3,
			Faults: "churn=0.01/0.3",
		})
		if err != nil {
			t.Fatalf("%s engine with churn: %v", engine, err)
		}
		if len(res.Centroids) != 2 {
			t.Fatalf("%s engine: got %d centroids, want 2", engine, len(res.Centroids))
		}
	}
}

// TestSyntheticErrVariants covers the error-returning dataset
// generators and their panicking wrappers.
func TestSyntheticErrVariants(t *testing.T) {
	if _, _, _, err := chiaroscuro.SyntheticCERErr(0, 24, 1); err == nil {
		t.Fatal("SyntheticCERErr must reject n=0")
	}
	if _, _, _, err := chiaroscuro.SyntheticTumorGrowthErr(-3, 20, 1); err == nil {
		t.Fatal("SyntheticTumorGrowthErr must reject n<1")
	}
	series, labels, names, err := chiaroscuro.SyntheticCERErr(5, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 5 || len(labels) != 5 || len(names) == 0 || len(series[0]) != 12 {
		t.Fatalf("SyntheticCERErr shape: %d series, %d labels, %d names, dim %d",
			len(series), len(labels), len(names), len(series[0]))
	}
	// The old signatures remain as thin wrappers: same data, panic on
	// invalid options.
	s2, l2, n2 := chiaroscuro.SyntheticCER(5, 12, 1)
	if len(s2) != 5 || len(l2) != 5 || len(n2) != len(names) {
		t.Fatal("SyntheticCER wrapper disagrees with SyntheticCERErr")
	}
	for i := range s2[0] {
		if s2[0][i] != series[0][i] {
			t.Fatal("wrapper and Err variant generated different data")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SyntheticCER(0, ...) must panic")
		}
	}()
	chiaroscuro.SyntheticCER(0, 24, 1)
}
