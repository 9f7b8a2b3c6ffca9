// Package dp implements the differential-privacy machinery of Chiaroscuro:
//
//   - the Laplace perturbation mechanism satisfying ε-differential privacy
//     (Dwork, ICALP 2006), parameterized by the L1 sensitivity of the
//     disclosed aggregate;
//   - the decomposition of a Laplace random variable into n independently
//     generated "noise shares" based on the gamma distribution (demo
//     paper, Sec. II.A): if G1_i, G2_i ~ Gamma(1/n, b) i.i.d., then
//     Σ_i (G1_i − G2_i) ~ Laplace(b). Each participant contributes one
//     share pair, so the noise is assembled collectively and no single
//     party knows (or controls) the total noise;
//   - one privacy budget implementing self-composition at both horizons:
//     a run's ε is split across its iterations' disclosures, a streaming
//     session's lifetime ε across its windows, and overrunning either is
//     an error;
//   - budget-distribution strategies (the paper's "smart privacy budget
//     distribution" quality-enhancing heuristics) for the iterations of
//     a run and the windows of a stream.
package dp

import (
	"errors"
	"math"
	"math/rand"
)

// ErrBudgetExhausted is returned by Budget.Spend when a disclosure would
// exceed the privacy budget.
var ErrBudgetExhausted = errors.New("dp: privacy budget exhausted")

// Laplace draws one Laplace(0, scale) variate from rng using inverse
// transform sampling.
func Laplace(rng *rand.Rand, scale float64) float64 {
	if scale <= 0 {
		return 0
	}
	u := rng.Float64() - 0.5
	if u >= 0 {
		return -scale * math.Log(1-2*u)
	}
	return scale * math.Log(1+2*u)
}

// Gamma draws one Gamma(shape, scale) variate. Marsaglia–Tsang for
// shape >= 1, with the standard U^{1/shape} boosting for shape < 1.
func Gamma(rng *rand.Rand, shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		return 0
	}
	if shape < 1 {
		// Boost: if X ~ Gamma(shape+1) and U ~ Uniform(0,1), then
		// X·U^{1/shape} ~ Gamma(shape).
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return Gamma(rng, shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = rng.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// NoiseShare is one participant's additive contribution to a collectively
// assembled Laplace variate: Gamma(1/n, b) − Gamma(1/n, b).
func NoiseShare(rng *rand.Rand, n int, scale float64) float64 {
	if n <= 0 || scale <= 0 {
		return 0
	}
	shape := 1 / float64(n)
	return Gamma(rng, shape, scale) - Gamma(rng, shape, scale)
}

// SumSensitivity returns the L1 sensitivity of the per-cluster disclosure
// of Chiaroscuro's computation step: one individual's series (bounded per
// coordinate by maxAbs, with dim coordinates) moves between clusters, so
// a single cluster's (sum, count) pair changes by at most dim·maxAbs in
// the sum and 1 in the count. Since an individual affects exactly two
// clusters' aggregates when changing (the old and the new), the full
// query's L1 sensitivity is 2·(dim·maxAbs + 1); for the add/remove
// neighbouring-database convention it is dim·maxAbs + 1. Chiaroscuro uses
// the add/remove convention (a participant joining or leaving), which is
// what this helper computes.
func SumSensitivity(dim int, maxAbs float64) float64 {
	if dim < 0 || maxAbs < 0 {
		return 0
	}
	return float64(dim)*maxAbs + 1
}
