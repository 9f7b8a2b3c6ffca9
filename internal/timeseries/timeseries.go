// Package timeseries provides the time-series kernel used throughout the
// Chiaroscuro reproduction: a Series value type, the squared Euclidean
// distance, min-max normalization, smoothing, and subsequence matching
// (the "Bob finds the closest profiles" use case of the demonstration,
// Fig. 3 panel 6).
//
// A Series is a plain []float64: one value per time step, uniformly
// sampled. All functions treat series as immutable unless their name says
// otherwise (InPlace suffix).
package timeseries

import (
	"errors"
	"fmt"
	"math"
)

// Series is a uniformly sampled time-series.
type Series []float64

// ErrLengthMismatch is returned when two series of different lengths are
// combined by an operation that requires equal lengths.
var ErrLengthMismatch = errors.New("timeseries: length mismatch")

// ErrEmpty is returned when an operation needs a non-empty series.
var ErrEmpty = errors.New("timeseries: empty series")

// AddInPlace adds t to s element-wise, modifying s.
func (s Series) AddInPlace(t Series) error {
	if len(s) != len(t) {
		return fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(s), len(t))
	}
	for i := range s {
		s[i] += t[i]
	}
	return nil
}

// Sum returns the sum of the elements of s.
func (s Series) Sum() float64 {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum
}

// Min returns the smallest element of s, or +Inf for an empty series.
func (s Series) Min() float64 {
	min := math.Inf(1)
	for _, v := range s {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the largest element of s, or -Inf for an empty series.
func (s Series) Max() float64 {
	max := math.Inf(-1)
	for _, v := range s {
		if v > max {
			max = v
		}
	}
	return max
}

// SquaredL2 returns the squared Euclidean distance between a and b.
func SquaredL2(a, b Series) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, len(a), len(b))
	}
	var acc float64
	for i := range a {
		d := a[i] - b[i]
		acc += d * d
	}
	return acc, nil
}

// MovingAverage returns s smoothed with a centered moving-average window of
// the given (odd or even) width. Width <= 1 returns a copy of s. Edges use
// a truncated window. This is the "smoothing of the perturbed means"
// quality-enhancing heuristic of the paper (Sec. II.B).
func MovingAverage(s Series, width int) Series {
	out := make(Series, len(s))
	if width <= 1 {
		copy(out, s)
		return out
	}
	half := width / 2
	for i := range s {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi > len(s)-1 {
			hi = len(s) - 1
		}
		var acc float64
		for j := lo; j <= hi; j++ {
			acc += s[j]
		}
		out[i] = acc / float64(hi-lo+1)
	}
	return out
}

// ExponentialSmoothing returns the exponentially smoothed version of s with
// factor alpha in (0, 1]: out[0]=s[0], out[i]=alpha*s[i]+(1-alpha)*out[i-1].
func ExponentialSmoothing(s Series, alpha float64) (Series, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("timeseries: smoothing factor %v outside (0,1]", alpha)
	}
	out := make(Series, len(s))
	if len(s) == 0 {
		return out, nil
	}
	out[0] = s[0]
	for i := 1; i < len(s); i++ {
		out[i] = alpha*s[i] + (1-alpha)*out[i-1]
	}
	return out, nil
}

// Clamp limits every element of s into [lo, hi], returning a new series.
func Clamp(s Series, lo, hi float64) Series {
	out := make(Series, len(s))
	for i, v := range s {
		switch {
		case v < lo:
			out[i] = lo
		case v > hi:
			out[i] = hi
		default:
			out[i] = v
		}
	}
	return out
}
