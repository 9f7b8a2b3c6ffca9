package dp

import (
	"math"
	"math/rand"
	"testing"
)

func TestLaplaceMoments(t *testing.T) {
	// Laplace(b): mean 0, variance 2b².
	rng := rand.New(rand.NewSource(42))
	const n = 200000
	const b = 3.0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := Laplace(rng, b)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-2*b*b)/(2*b*b) > 0.05 {
		t.Fatalf("variance = %v, want ~%v", variance, 2*b*b)
	}
}

func TestLaplaceZeroScale(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if Laplace(rng, 0) != 0 || Laplace(rng, -1) != 0 {
		t.Fatal("non-positive scale should give 0")
	}
}

func TestGammaMoments(t *testing.T) {
	// Gamma(shape, scale): mean = shape·scale, var = shape·scale².
	rng := rand.New(rand.NewSource(7))
	cases := []struct{ shape, scale float64 }{
		{0.1, 2.0}, {0.5, 1.0}, {1.0, 3.0}, {2.5, 0.5}, {9.0, 1.5},
	}
	for _, tc := range cases {
		const n = 100000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			x := Gamma(rng, tc.shape, tc.scale)
			if x < 0 {
				t.Fatalf("Gamma(%v,%v) produced negative %v", tc.shape, tc.scale, x)
			}
			sum += x
			sumSq += x * x
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		wantMean := tc.shape * tc.scale
		wantVar := tc.shape * tc.scale * tc.scale
		if math.Abs(mean-wantMean)/wantMean > 0.05 {
			t.Errorf("Gamma(%v,%v): mean %v, want %v", tc.shape, tc.scale, mean, wantMean)
		}
		if math.Abs(variance-wantVar)/wantVar > 0.10 {
			t.Errorf("Gamma(%v,%v): var %v, want %v", tc.shape, tc.scale, variance, wantVar)
		}
	}
}

func TestGammaDegenerateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if Gamma(rng, 0, 1) != 0 || Gamma(rng, 1, 0) != 0 || Gamma(rng, -1, 1) != 0 {
		t.Fatal("degenerate gamma parameters should give 0")
	}
}

func TestNoiseSharesSumToLaplace(t *testing.T) {
	// The paper's decomposition: Σ_{i=1..n}(G1_i - G2_i) with
	// G ~ Gamma(1/n, b) must be Laplace(b): mean 0, variance 2b².
	rng := rand.New(rand.NewSource(99))
	const trials = 20000
	const parties = 25
	const b = 2.0
	var sum, sumSq float64
	for trial := 0; trial < trials; trial++ {
		var total float64
		for p := 0; p < parties; p++ {
			total += NoiseShare(rng, parties, b)
		}
		sum += total
		sumSq += total * total
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean) > 0.1 {
		t.Fatalf("share-sum mean = %v, want ~0", mean)
	}
	if math.Abs(variance-2*b*b)/(2*b*b) > 0.1 {
		t.Fatalf("share-sum variance = %v, want ~%v", variance, 2*b*b)
	}
}

func TestNoiseShareDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if NoiseShare(rng, 0, 1) != 0 || NoiseShare(rng, 5, 0) != 0 {
		t.Fatal("degenerate share parameters should give 0")
	}
}

func TestSumSensitivity(t *testing.T) {
	if got := SumSensitivity(24, 1); got != 25 {
		t.Fatalf("sensitivity = %v, want 25", got)
	}
	if got := SumSensitivity(10, 0.5); got != 6 {
		t.Fatalf("sensitivity = %v, want 6", got)
	}
	if got := SumSensitivity(-1, 1); got != 0 {
		t.Fatalf("negative dim = %v, want 0", got)
	}
	if got := SumSensitivity(3, -1); got != 0 {
		t.Fatalf("negative bound = %v, want 0", got)
	}
}

func TestNoiseShareDeterministicGivenSeed(t *testing.T) {
	a := NoiseShare(rand.New(rand.NewSource(5)), 10, 1)
	b := NoiseShare(rand.New(rand.NewSource(5)), 10, 1)
	if a != b {
		t.Fatalf("same seed gave %v and %v", a, b)
	}
}
