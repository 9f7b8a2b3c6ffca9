package core

import (
	"math"
	"testing"
)

// oracleMeanSq computes the true mean squared distance of the data to the
// closest of the given centroids.
func oracleMeanSq(data, centroids [][]float64) float64 {
	var total float64
	for _, s := range data {
		best := math.Inf(1)
		for _, c := range centroids {
			var acc float64
			for t := range s {
				d := s[t] - c[t]
				acc += d * d
			}
			if acc < best {
				best = acc
			}
		}
		total += best
	}
	return total / float64(len(data))
}

func TestTrackedInertiaMatchesOracle(t *testing.T) {
	data := blobs(200, 4, 2)
	tr, err := Run(data, Params{
		K: 2, Epsilon: 5000, Iterations: 3, Seed: 13,
		TrackInertia: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Compare the last iteration's disclosed inertia to the oracle value
	// under the centroids the assignment used (the previous iteration's
	// centroids, i.e. the ones in effect at assignment time).
	last := tr.Iterations[len(tr.Iterations)-1]
	if math.IsNaN(last.PerturbedInertia) {
		t.Fatal("tracked inertia is NaN")
	}
	// The assignment in the final iteration used the previous disclosed
	// centroids; with ε≈∞ and converged blobs both are ≈ the blob means,
	// so the oracle from the final centroids is a valid reference.
	want := oracleMeanSq(data, last.PerturbedCentroids)
	if math.Abs(last.PerturbedInertia-want) > 0.02+0.2*want {
		t.Fatalf("tracked inertia %v, oracle %v", last.PerturbedInertia, want)
	}
}

func TestInertiaNotTrackedIsNaN(t *testing.T) {
	data := blobs(60, 3, 2)
	tr, err := Run(data, Params{K: 2, Epsilon: 100, Iterations: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range tr.Iterations {
		if !math.IsNaN(it.PerturbedInertia) {
			t.Fatalf("inertia reported without tracking: %v", it.PerturbedInertia)
		}
	}
}

func TestInertiaStopTerminatesEarly(t *testing.T) {
	// Tight blobs: inertia plateaus immediately after the first
	// iteration, so a 5% improvement threshold must stop the run well
	// before the 10-iteration cap.
	data := blobs(200, 3, 2)
	tr, err := Run(data, Params{
		K: 2, Epsilon: 5000, Iterations: 10, Seed: 21,
		TrackInertia:         true,
		InertiaStopThreshold: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Iterations) >= 10 {
		t.Fatalf("ran all %d iterations despite quality plateau", len(tr.Iterations))
	}
	if tr.ConvergedAtIteration < 0 {
		t.Fatal("early stop not reported as convergence")
	}
	// Unused budget preserved.
	if tr.Privacy.Spent >= tr.Privacy.Total-1e-9 {
		t.Fatalf("no budget saved: %+v", tr.Privacy)
	}
}

func TestInertiaStopRequiresTracking(t *testing.T) {
	data := blobs(20, 3, 2)
	if _, err := Run(data, Params{
		K: 2, Epsilon: 1, InertiaStopThreshold: 0.05,
	}); err == nil {
		t.Fatal("InertiaStopThreshold without TrackInertia should error")
	}
	if _, err := Run(data, Params{
		K: 2, Epsilon: 1, TrackInertia: true, InertiaStopThreshold: -1,
	}); err == nil {
		t.Fatal("negative threshold should error")
	}
}

func TestTrackingRaisesNoiseScale(t *testing.T) {
	// Same ε: the run with tracking must show at least as much centroid
	// noise (its sensitivity is strictly larger), and its per-iteration
	// disclosure includes one more aggregate.
	data := blobs(150, 6, 2)
	base := Params{K: 2, Epsilon: 3, Iterations: 3, Seed: 31}
	plain, err := Run(data, base)
	if err != nil {
		t.Fatal(err)
	}
	tracked := base
	tracked.TrackInertia = true
	withTrack, err := Run(data, tracked)
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
	if avg(withTrack) < avg(plain)*0.9 {
		t.Fatalf("tracking reduced noise?! %v vs %v", avg(withTrack), avg(plain))
	}
}

func TestTrackingWorksWithRealCrypto(t *testing.T) {
	data := blobs(12, 3, 2)
	tr, err := Run(data, Params{
		K: 2, Epsilon: 500, Iterations: 2, Seed: 7,
		TrackInertia: true,
		Backend:      BackendDamgardJurik, ModulusBits: 128,
		DecryptThreshold: 3, GossipRounds: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(tr.Iterations[len(tr.Iterations)-1].PerturbedInertia) {
		t.Fatal("no inertia under real crypto")
	}
}
