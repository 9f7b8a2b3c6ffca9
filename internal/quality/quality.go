// Package quality provides the clustering-quality metrics displayed by the
// demonstration: distances between centroid sets (the noise-impact graphs
// of Fig. 3 panel 5) and the Adjusted Rand Index, used to compare
// Chiaroscuro's result against the centralized baseline and the
// ground-truth archetypes. Intra-cluster inertia, the paper's example
// objective (Sec. II.A), is computed by kmeans.AssignAll.
package quality

import (
	"errors"
	"fmt"
	"math"
)

// ErrMismatch is returned when inputs have incompatible shapes.
var ErrMismatch = errors.New("quality: input shape mismatch")

// MatchCentroids returns, for each centroid in a, the index of the
// centroid of b it is matched to, minimizing the total squared distance.
// For k <= 8 the optimal assignment is found by exhaustive permutation
// search; beyond that a greedy matching is used (adequate for the
// experiment sizes of the paper, k ≈ 4–10).
func MatchCentroids(a, b [][]float64) ([]int, error) {
	if len(a) != len(b) || len(a) == 0 {
		return nil, fmt.Errorf("%w: %d vs %d centroids", ErrMismatch, len(a), len(b))
	}
	k := len(a)
	cost := make([][]float64, k)
	for i := range cost {
		cost[i] = make([]float64, k)
		for j := range cost[i] {
			if len(a[i]) != len(b[j]) {
				return nil, fmt.Errorf("%w: centroid dims", ErrMismatch)
			}
			cost[i][j] = sqDist(a[i], b[j])
		}
	}
	if k <= 8 {
		return optimalAssignment(cost), nil
	}
	return greedyAssignment(cost), nil
}

func optimalAssignment(cost [][]float64) []int {
	k := len(cost)
	best := make([]int, k)
	cur := make([]int, k)
	used := make([]bool, k)
	bestCost := math.Inf(1)
	var rec func(i int, acc float64)
	rec = func(i int, acc float64) {
		if acc >= bestCost {
			return
		}
		if i == k {
			bestCost = acc
			copy(best, cur)
			return
		}
		for j := 0; j < k; j++ {
			if used[j] {
				continue
			}
			used[j] = true
			cur[i] = j
			rec(i+1, acc+cost[i][j])
			used[j] = false
		}
	}
	rec(0, 0)
	return best
}

func greedyAssignment(cost [][]float64) []int {
	k := len(cost)
	out := make([]int, k)
	usedA := make([]bool, k)
	usedB := make([]bool, k)
	for step := 0; step < k; step++ {
		bi, bj, bc := -1, -1, math.Inf(1)
		for i := 0; i < k; i++ {
			if usedA[i] {
				continue
			}
			for j := 0; j < k; j++ {
				if usedB[j] {
					continue
				}
				if cost[i][j] < bc {
					bi, bj, bc = i, j, cost[i][j]
				}
			}
		}
		usedA[bi], usedB[bj] = true, true
		out[bi] = bj
	}
	return out
}

// CentroidRMSE matches the two centroid sets and returns the root mean
// squared per-coordinate error across all matched pairs — the scalar shown
// by the demo's noise-impact graphs.
func CentroidRMSE(a, b [][]float64) (float64, error) {
	match, err := MatchCentroids(a, b)
	if err != nil {
		return 0, err
	}
	var acc float64
	var count int
	for i, j := range match {
		acc += sqDist(a[i], b[j])
		count += len(a[i])
	}
	if count == 0 {
		return 0, fmt.Errorf("%w: zero-dimensional centroids", ErrMismatch)
	}
	return math.Sqrt(acc / float64(count)), nil
}

// ARI computes the Adjusted Rand Index between two partitions given as
// per-point labels. 1 means identical partitions, ~0 means chance-level
// agreement.
func ARI(x, y []int) (float64, error) {
	ct, nx, ny, n, err := contingency(x, y)
	if err != nil {
		return 0, err
	}
	var sumComb, sumA, sumB float64
	for _, row := range ct {
		for _, v := range row {
			sumComb += comb2(v)
		}
	}
	for _, v := range nx {
		sumA += comb2(v)
	}
	for _, v := range ny {
		sumB += comb2(v)
	}
	total := comb2(n)
	if total == 0 {
		return 1, nil
	}
	expected := sumA * sumB / total
	maxIdx := (sumA + sumB) / 2
	if maxIdx == expected {
		return 1, nil
	}
	return (sumComb - expected) / (maxIdx - expected), nil
}

func contingency(x, y []int) (ct [][]int, nx, ny []int, n int, err error) {
	if len(x) != len(y) {
		return nil, nil, nil, 0, fmt.Errorf("%w: %d vs %d labels", ErrMismatch, len(x), len(y))
	}
	kx, ky := 0, 0
	for i := range x {
		if x[i] < 0 || y[i] < 0 {
			return nil, nil, nil, 0, fmt.Errorf("quality: negative label at %d", i)
		}
		if x[i]+1 > kx {
			kx = x[i] + 1
		}
		if y[i]+1 > ky {
			ky = y[i] + 1
		}
	}
	ct = make([][]int, kx)
	for i := range ct {
		ct[i] = make([]int, ky)
	}
	nx = make([]int, kx)
	ny = make([]int, ky)
	for i := range x {
		ct[x[i]][y[i]]++
		nx[x[i]]++
		ny[y[i]]++
	}
	return ct, nx, ny, len(x), nil
}

func comb2(v int) float64 {
	return float64(v) * float64(v-1) / 2
}

func sqDist(a, b []float64) float64 {
	var acc float64
	for i := range a {
		d := a[i] - b[i]
		acc += d * d
	}
	return acc
}
