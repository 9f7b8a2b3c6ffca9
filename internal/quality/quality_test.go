package quality

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatchCentroidsIdentity(t *testing.T) {
	a := [][]float64{{0, 0}, {1, 1}, {2, 2}}
	m, err := MatchCentroids(a, a)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range m {
		if i != j {
			t.Fatalf("identity match = %v", m)
		}
	}
}

func TestMatchCentroidsPermutation(t *testing.T) {
	a := [][]float64{{0, 0}, {5, 5}, {9, 9}}
	b := [][]float64{{9.1, 9}, {0.1, 0}, {5.1, 5}} // a[0]->b[1], a[1]->b[2], a[2]->b[0]
	m, err := MatchCentroids(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 0}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("match = %v, want %v", m, want)
		}
	}
}

func TestMatchCentroidsOptimalBeatsIdentityWhenSwapped(t *testing.T) {
	// Random centroid sets under random permutations: matching must
	// recover the permutation.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		k := 2 + rng.Intn(6)
		a := make([][]float64, k)
		for i := range a {
			a[i] = []float64{rng.Float64() * 100, rng.Float64() * 100}
		}
		perm := rng.Perm(k)
		b := make([][]float64, k)
		for i, p := range perm {
			b[p] = []float64{a[i][0] + 0.001, a[i][1]}
		}
		m, err := MatchCentroids(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range m {
			if m[i] != perm[i] {
				t.Fatalf("trial %d: match %v, want %v", trial, m, perm)
			}
		}
	}
}

func TestMatchCentroidsGreedyPath(t *testing.T) {
	// k > 8 exercises the greedy matcher.
	k := 10
	a := make([][]float64, k)
	b := make([][]float64, k)
	for i := 0; i < k; i++ {
		a[i] = []float64{float64(10 * i)}
		b[i] = []float64{float64(10*i) + 0.5}
	}
	m, err := MatchCentroids(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m {
		if m[i] != i {
			t.Fatalf("greedy match = %v", m)
		}
	}
}

func TestMatchCentroidsErrors(t *testing.T) {
	if _, err := MatchCentroids(nil, nil); !errors.Is(err, ErrMismatch) {
		t.Fatalf("err = %v", err)
	}
	if _, err := MatchCentroids([][]float64{{1}}, [][]float64{{1}, {2}}); !errors.Is(err, ErrMismatch) {
		t.Fatalf("err = %v", err)
	}
	if _, err := MatchCentroids([][]float64{{1}}, [][]float64{{1, 2}}); !errors.Is(err, ErrMismatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestCentroidRMSE(t *testing.T) {
	a := [][]float64{{0, 0}, {10, 10}}
	b := [][]float64{{10, 10}, {1, 0}} // permuted, one unit off in one coord
	got, err := CentroidRMSE(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Total squared error 1 over 4 coordinates -> rmse = 0.5.
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("rmse = %v, want 0.5", got)
	}
}

func TestCentroidRMSEZeroForIdentical(t *testing.T) {
	a := [][]float64{{1, 2}, {3, 4}}
	got, err := CentroidRMSE(a, a)
	if err != nil || got != 0 {
		t.Fatalf("rmse = %v, err = %v", got, err)
	}
}

func TestARIPerfectAgreement(t *testing.T) {
	x := []int{0, 0, 1, 1, 2, 2}
	got, err := ARI(x, x)
	if err != nil || got != 1 {
		t.Fatalf("ARI(x,x) = %v, err = %v", got, err)
	}
	// Label permutation does not matter.
	y := []int{2, 2, 0, 0, 1, 1}
	got, err = ARI(x, y)
	if err != nil || math.Abs(got-1) > 1e-12 {
		t.Fatalf("ARI under relabeling = %v", got)
	}
}

func TestARIRandomNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 3000
	x := make([]int, n)
	y := make([]int, n)
	for i := range x {
		x[i] = rng.Intn(4)
		y[i] = rng.Intn(4)
	}
	got, err := ARI(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got) > 0.03 {
		t.Fatalf("ARI of independent labelings = %v, want ~0", got)
	}
}

func TestARIKnownValue(t *testing.T) {
	// Example verified against sklearn.metrics.adjusted_rand_score:
	// x = [0,0,1,1], y = [0,0,1,2] -> ARI = 0.5714285714...
	x := []int{0, 0, 1, 1}
	y := []int{0, 0, 1, 2}
	got, err := ARI(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-4.0/7.0) > 1e-9 {
		t.Fatalf("ARI = %v, want 4/7", got)
	}
}

func TestPartitionMetricErrors(t *testing.T) {
	if _, err := ARI([]int{0}, []int{0, 1}); !errors.Is(err, ErrMismatch) {
		t.Fatalf("ARI length: %v", err)
	}
	if _, err := ARI([]int{-1}, []int{0}); err == nil {
		t.Fatal("negative label should error")
	}
}

func TestARISymmetryProperty(t *testing.T) {
	f := func(rawX, rawY []uint8) bool {
		n := len(rawX)
		if len(rawY) < n {
			n = len(rawY)
		}
		if n < 2 {
			return true
		}
		x := make([]int, n)
		y := make([]int, n)
		for i := 0; i < n; i++ {
			x[i] = int(rawX[i] % 5)
			y[i] = int(rawY[i] % 5)
		}
		axy, err1 := ARI(x, y)
		ayx, err2 := ARI(y, x)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(axy-ayx) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionMetricsSingletonAndDegenerate is the table-driven edge
// battery over empty and singleton clusterings: one point, one cluster,
// all-singletons — ARI must return a finite, well-defined
// value (degenerate agreement is defined as perfect, matching the
// standard convention) instead of NaN from a zero denominator.
func TestPartitionMetricsSingletonAndDegenerate(t *testing.T) {
	cases := []struct {
		name    string
		x, y    []int
		wantARI float64
	}{
		{name: "single point", x: []int{0}, y: []int{0}, wantARI: 1},
		{name: "two points one cluster", x: []int{0, 0}, y: []int{0, 0}, wantARI: 1},
		{name: "all singletons agree", x: []int{0, 1, 2}, y: []int{2, 0, 1}, wantARI: 1},
		{name: "one cluster vs singletons", x: []int{0, 0, 0}, y: []int{0, 1, 2}, wantARI: 0},
		{name: "single point distinct labels", x: []int{0}, y: []int{3}, wantARI: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ari, err := ARI(tc.x, tc.y)
			if err != nil {
				t.Fatalf("ARI: %v", err)
			}
			if math.IsNaN(ari) || math.Abs(ari-tc.wantARI) > 1e-12 {
				t.Fatalf("ARI = %v, want %v", ari, tc.wantARI)
			}
		})
	}
}

// TestRMSEEmptySingletonClusters pins the empty/singleton centroid-set
// behaviour of the centroid distance.
func TestRMSEEmptySingletonClusters(t *testing.T) {
	// Singleton centroid sets through matching + RMSE.
	rmse, err := CentroidRMSE([][]float64{{1, 2}}, [][]float64{{1, 2}})
	if err != nil || rmse != 0 {
		t.Fatalf("identical singleton RMSE = %v, %v", rmse, err)
	}
	// Zero-dimensional centroids are a shape error, not RMSE 0.
	if _, err := CentroidRMSE([][]float64{{}}, [][]float64{{}}); !errors.Is(err, ErrMismatch) {
		t.Fatalf("zero-dim: %v", err)
	}
	// Mismatched set sizes (one empty) stay errors.
	if _, err := CentroidRMSE([][]float64{}, [][]float64{{1}}); !errors.Is(err, ErrMismatch) {
		t.Fatalf("empty set: %v", err)
	}
}
