// Package kmeans implements centralized Lloyd's k-means (Lloyd, 1982),
// the clustering algorithm Chiaroscuro distributes and the quality
// baseline the demonstration compares against ("the quality reached ...
// compared to a centralized k-means", demo paper Sec. III.C).
package kmeans

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// InitMethod selects how initial centroids are chosen. The zero value
// picks k distinct data points uniformly at random — the paper's "chosen
// at random" default.
type InitMethod int

const (
	_ InitMethod = iota
	// InitKMeansPP uses the k-means++ D² weighting.
	InitKMeansPP
	// InitProvided uses Options.Initial as given.
	InitProvided
)

// EmptyPolicy selects the reaction to a cluster losing all its members.
// The zero value keeps the previous centroid (Chiaroscuro's behaviour: a
// perturbed mean over zero members is pure noise, so the core protocol
// keeps the old centroid instead).
type EmptyPolicy int

const (
	_ EmptyPolicy = iota
	// EmptyReseed moves the centroid onto the point farthest from its
	// assigned centroid.
	EmptyReseed
)

// Options configures a run.
type Options struct {
	K         int
	MaxIter   int
	Tolerance float64 // stop when max centroid displacement (L2) <= Tolerance
	Init      InitMethod
	Initial   [][]float64 // used by InitProvided
	Empty     EmptyPolicy
	Seed      int64
}

// Result is the outcome of a run.
type Result struct {
	Centroids   [][]float64
	Assignments []int
	Inertia     float64 // within-cluster sum of squared distances
	Iterations  int
	Converged   bool
	// InertiaTrace[i] is the inertia after iteration i+1 (useful for the
	// demo's per-iteration quality graphs).
	InertiaTrace []float64
	// CentroidTrace[i] is a deep copy of the centroids after iteration
	// i+1.
	CentroidTrace [][][]float64
}

// Common errors.
var (
	ErrNoData      = errors.New("kmeans: no data")
	ErrBadK        = errors.New("kmeans: k must be in [1, len(data)]")
	ErrDimMismatch = errors.New("kmeans: inconsistent dimensions")
)

// Run executes Lloyd's algorithm.
func Run(data [][]float64, opt Options) (*Result, error) {
	if len(data) == 0 {
		return nil, ErrNoData
	}
	dim := len(data[0])
	for i, p := range data {
		if len(p) != dim {
			return nil, fmt.Errorf("%w: point %d has dim %d, want %d", ErrDimMismatch, i, len(p), dim)
		}
	}
	if opt.K < 1 || opt.K > len(data) {
		return nil, fmt.Errorf("%w: k=%d, n=%d", ErrBadK, opt.K, len(data))
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 100
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	centroids, err := initialize(data, opt, rng)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	assign := make([]int, len(data))
	for iter := 0; iter < opt.MaxIter; iter++ {
		// Assignment step.
		inertia := AssignAll(data, centroids, assign)
		// Computation step.
		next, counts := Means(data, assign, opt.K, dim)
		for j := range next {
			if counts[j] > 0 {
				continue
			}
			switch opt.Empty {
			case EmptyReseed:
				far := farthestPoint(data, centroids, assign)
				copy(next[j], data[far])
			default:
				copy(next[j], centroids[j])
			}
		}
		// Convergence step.
		moved := maxDisplacement(centroids, next)
		centroids = next
		res.Iterations = iter + 1
		res.InertiaTrace = append(res.InertiaTrace, inertia)
		res.CentroidTrace = append(res.CentroidTrace, deepCopy(centroids))
		if moved <= opt.Tolerance {
			res.Converged = true
			break
		}
	}
	res.Inertia = AssignAll(data, centroids, assign)
	res.Centroids = centroids
	res.Assignments = assign
	return res, nil
}

// AssignAll assigns every point to its closest centroid, filling assign
// (which must have len(data) entries) and returning the total inertia.
func AssignAll(data, centroids [][]float64, assign []int) float64 {
	var inertia float64
	for i, p := range data {
		best, bestSq := 0, math.Inf(1)
		for j, c := range centroids {
			sq := sqDist(p, c)
			if sq < bestSq {
				best, bestSq = j, sq
			}
		}
		assign[i] = best
		inertia += bestSq
	}
	return inertia
}

// Means computes per-cluster mean vectors and member counts.
func Means(data [][]float64, assign []int, k, dim int) ([][]float64, []int) {
	sums := make([][]float64, k)
	for j := range sums {
		sums[j] = make([]float64, dim)
	}
	counts := make([]int, k)
	for i, p := range data {
		j := assign[i]
		counts[j]++
		for t, v := range p {
			sums[j][t] += v
		}
	}
	for j := range sums {
		if counts[j] == 0 {
			continue
		}
		inv := 1 / float64(counts[j])
		for t := range sums[j] {
			sums[j][t] *= inv
		}
	}
	return sums, counts
}

func initialize(data [][]float64, opt Options, rng *rand.Rand) ([][]float64, error) {
	switch opt.Init {
	case InitProvided:
		if len(opt.Initial) != opt.K {
			return nil, fmt.Errorf("kmeans: provided %d initial centroids, want %d", len(opt.Initial), opt.K)
		}
		for i, c := range opt.Initial {
			if len(c) != len(data[0]) {
				return nil, fmt.Errorf("%w: initial centroid %d", ErrDimMismatch, i)
			}
		}
		return deepCopy(opt.Initial), nil
	case InitKMeansPP:
		return kmeansPP(data, opt.K, rng), nil
	default:
		idx := rng.Perm(len(data))[:opt.K]
		out := make([][]float64, opt.K)
		for i, id := range idx {
			out[i] = append([]float64(nil), data[id]...)
		}
		return out, nil
	}
}

func kmeansPP(data [][]float64, k int, rng *rand.Rand) [][]float64 {
	out := make([][]float64, 0, k)
	first := rng.Intn(len(data))
	out = append(out, append([]float64(nil), data[first]...))
	d2 := make([]float64, len(data))
	for len(out) < k {
		var total float64
		for i, p := range data {
			best := math.Inf(1)
			for _, c := range out {
				if sq := sqDist(p, c); sq < best {
					best = sq
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			// All remaining points coincide with centroids; fill randomly.
			out = append(out, append([]float64(nil), data[rng.Intn(len(data))]...))
			continue
		}
		r := rng.Float64() * total
		acc := 0.0
		pick := len(data) - 1
		for i, w := range d2 {
			acc += w
			if acc >= r {
				pick = i
				break
			}
		}
		out = append(out, append([]float64(nil), data[pick]...))
	}
	return out
}

func farthestPoint(data, centroids [][]float64, assign []int) int {
	worst, worstSq := 0, -1.0
	for i, p := range data {
		sq := sqDist(p, centroids[assign[i]])
		if sq > worstSq {
			worst, worstSq = i, sq
		}
	}
	return worst
}

func maxDisplacement(a, b [][]float64) float64 {
	var max float64
	for j := range a {
		d := math.Sqrt(sqDist(a[j], b[j]))
		if d > max {
			max = d
		}
	}
	return max
}

func sqDist(a, b []float64) float64 {
	var acc float64
	for i := range a {
		d := a[i] - b[i]
		acc += d * d
	}
	return acc
}

func deepCopy(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i := range m {
		out[i] = append([]float64(nil), m[i]...)
	}
	return out
}
