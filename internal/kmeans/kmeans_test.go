package kmeans

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// threeBlobs builds an obviously separable dataset: three tight clusters
// around (0,0), (5,5), (10,0).
func threeBlobs(n int, seed int64) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	centers := [][]float64{{0, 0}, {5, 5}, {10, 0}}
	data := make([][]float64, n)
	labels := make([]int, n)
	for i := range data {
		c := i % 3
		labels[i] = c
		data[i] = []float64{
			centers[c][0] + 0.2*rng.NormFloat64(),
			centers[c][1] + 0.2*rng.NormFloat64(),
		}
	}
	return data, labels
}

func TestRunRecoversBlobs(t *testing.T) {
	data, labels := threeBlobs(150, 1)
	res, err := Run(data, Options{K: 3, MaxIter: 50, Tolerance: 1e-9, Init: InitKMeansPP, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge on trivially separable data")
	}
	// Each true cluster must map to exactly one predicted cluster.
	mapping := map[int]int{}
	for i, l := range labels {
		if prev, ok := mapping[l]; ok {
			if prev != res.Assignments[i] {
				t.Fatalf("true cluster %d split across predicted clusters", l)
			}
		} else {
			mapping[l] = res.Assignments[i]
		}
	}
	if len(mapping) != 3 {
		t.Fatalf("mapping = %v", mapping)
	}
	if res.Inertia > 30 {
		t.Fatalf("inertia = %v, too high for tight blobs", res.Inertia)
	}
}

func TestInertiaTraceNonIncreasing(t *testing.T) {
	data, _ := threeBlobs(120, 3)
	res, err := Run(data, Options{K: 3, MaxIter: 30, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.InertiaTrace); i++ {
		if res.InertiaTrace[i] > res.InertiaTrace[i-1]+1e-9 {
			t.Fatalf("inertia increased at iteration %d: %v", i, res.InertiaTrace)
		}
	}
}

func TestProvidedInit(t *testing.T) {
	data, _ := threeBlobs(30, 5)
	initial := [][]float64{{0, 0}, {5, 5}, {10, 0}}
	res, err := Run(data, Options{K: 3, Init: InitProvided, Initial: initial, MaxIter: 10, Tolerance: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("perfect init should converge immediately")
	}
	if res.Iterations > 3 {
		t.Fatalf("took %d iterations from a perfect init", res.Iterations)
	}
	// Provided centroids must not be mutated.
	if initial[0][0] != 0 || initial[1][0] != 5 {
		t.Fatal("initial centroids were mutated")
	}
}

func TestProvidedInitValidation(t *testing.T) {
	data, _ := threeBlobs(10, 6)
	if _, err := Run(data, Options{K: 3, Init: InitProvided, Initial: [][]float64{{0, 0}}}); err == nil {
		t.Fatal("wrong number of provided centroids should error")
	}
	if _, err := Run(data, Options{K: 1, Init: InitProvided, Initial: [][]float64{{0}}}); !errors.Is(err, ErrDimMismatch) {
		t.Fatal("provided centroid dim mismatch should error")
	}
}

func TestInputValidation(t *testing.T) {
	if _, err := Run(nil, Options{K: 1}); !errors.Is(err, ErrNoData) {
		t.Fatalf("err = %v", err)
	}
	data := [][]float64{{1, 2}, {3, 4}}
	if _, err := Run(data, Options{K: 0}); !errors.Is(err, ErrBadK) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Run(data, Options{K: 3}); !errors.Is(err, ErrBadK) {
		t.Fatalf("err = %v", err)
	}
	ragged := [][]float64{{1, 2}, {3}}
	if _, err := Run(ragged, Options{K: 1}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestKEqualsN(t *testing.T) {
	data := [][]float64{{0, 0}, {1, 1}, {2, 2}}
	res, err := Run(data, Options{K: 3, MaxIter: 10, Tolerance: 1e-9, Init: InitKMeansPP, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-12 {
		t.Fatalf("k=n should give zero inertia, got %v", res.Inertia)
	}
}

func TestKOne(t *testing.T) {
	data := [][]float64{{0, 0}, {2, 0}, {4, 0}}
	res, err := Run(data, Options{K: 1, MaxIter: 10, Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Centroids[0][0]-2) > 1e-9 || math.Abs(res.Centroids[0][1]) > 1e-9 {
		t.Fatalf("k=1 centroid = %v, want the mean (2,0)", res.Centroids[0])
	}
}

func TestEmptyClusterKeepPolicy(t *testing.T) {
	// Two coincident points + far centroid: one cluster will be empty.
	data := [][]float64{{0, 0}, {0, 0}, {0, 0}}
	initial := [][]float64{{0, 0}, {100, 100}}
	res, err := Run(data, Options{K: 2, Init: InitProvided, Initial: initial, MaxIter: 5})
	if err != nil {
		t.Fatal(err)
	}
	// The empty cluster's centroid must remain where it was.
	if res.Centroids[1][0] != 100 || res.Centroids[1][1] != 100 {
		t.Fatalf("empty cluster centroid moved: %v", res.Centroids[1])
	}
}

func TestEmptyClusterReseedPolicy(t *testing.T) {
	data := [][]float64{{0, 0}, {0.1, 0}, {10, 10}}
	initial := [][]float64{{0, 0}, {100, 100}}
	res, err := Run(data, Options{K: 2, Init: InitProvided, Initial: initial, MaxIter: 10, Tolerance: 1e-9, Empty: EmptyReseed})
	if err != nil {
		t.Fatal(err)
	}
	// Reseeding should move centroid 1 onto the farthest point (10,10).
	if res.Centroids[1][0] != 10 || res.Centroids[1][1] != 10 {
		t.Fatalf("reseed centroid = %v, want (10,10)", res.Centroids[1])
	}
}

func TestDeterminismGivenSeed(t *testing.T) {
	data, _ := threeBlobs(60, 8)
	a, _ := Run(data, Options{K: 3, Seed: 42, MaxIter: 20})
	b, _ := Run(data, Options{K: 3, Seed: 42, MaxIter: 20})
	if a.Inertia != b.Inertia {
		t.Fatalf("same seed, different inertia: %v vs %v", a.Inertia, b.Inertia)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatal("same seed, different assignments")
		}
	}
}

func TestKMeansPPBeatsRandomOnAverage(t *testing.T) {
	// k-means++ should rarely be (much) worse than random init. Compare
	// averaged inertia over a few seeds.
	data, _ := threeBlobs(90, 9)
	var ppTotal, rndTotal float64
	for seed := int64(0); seed < 5; seed++ {
		pp, err := Run(data, Options{K: 3, Init: InitKMeansPP, Seed: seed, MaxIter: 30})
		if err != nil {
			t.Fatal(err)
		}
		rnd, err := Run(data, Options{K: 3, Seed: seed, MaxIter: 30})
		if err != nil {
			t.Fatal(err)
		}
		ppTotal += pp.Inertia
		rndTotal += rnd.Inertia
	}
	if ppTotal > rndTotal*1.5 {
		t.Fatalf("k-means++ much worse than random: %v vs %v", ppTotal, rndTotal)
	}
}

func TestAssignAllAndMeans(t *testing.T) {
	data := [][]float64{{0}, {1}, {10}, {11}}
	centroids := [][]float64{{0.5}, {10.5}}
	assign := make([]int, len(data))
	inertia := AssignAll(data, centroids, assign)
	want := []int{0, 0, 1, 1}
	for i := range want {
		if assign[i] != want[i] {
			t.Fatalf("assign = %v", assign)
		}
	}
	if math.Abs(inertia-1.0) > 1e-12 {
		t.Fatalf("inertia = %v, want 1.0", inertia)
	}
	means, counts := Means(data, assign, 2, 1)
	if means[0][0] != 0.5 || means[1][0] != 10.5 {
		t.Fatalf("means = %v", means)
	}
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestMeansWithEmptyCluster(t *testing.T) {
	data := [][]float64{{1}, {3}}
	assign := []int{0, 0}
	means, counts := Means(data, assign, 2, 1)
	if counts[1] != 0 {
		t.Fatalf("counts = %v", counts)
	}
	if means[1][0] != 0 {
		t.Fatalf("empty mean should be zero vector, got %v", means[1])
	}
	if means[0][0] != 2 {
		t.Fatalf("mean = %v", means[0])
	}
}

func TestCentroidTraceRecorded(t *testing.T) {
	data, _ := threeBlobs(30, 10)
	res, err := Run(data, Options{K: 3, MaxIter: 7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CentroidTrace) != res.Iterations {
		t.Fatalf("trace length %d != iterations %d", len(res.CentroidTrace), res.Iterations)
	}
	// Trace entries are deep copies: mutating one must not affect final.
	res.CentroidTrace[0][0][0] = 12345
	if res.Centroids[0][0] == 12345 {
		t.Fatal("trace aliases final centroids")
	}
}

func TestMaxIterDefaultApplied(t *testing.T) {
	data, _ := threeBlobs(30, 11)
	res, err := Run(data, Options{K: 3, Seed: 1}) // MaxIter 0 -> 100
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 1 || res.Iterations > 100 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
}
