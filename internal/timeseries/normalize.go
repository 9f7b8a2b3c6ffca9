package timeseries

import (
	"fmt"
	"math"
)

// Normalization captures a reversible affine transform applied uniformly to
// a dataset so that values fall into [0, 1]. Chiaroscuro requires a bounded
// value domain: the differential-privacy sensitivity of the per-cluster
// sums is derived from the bound (see internal/dp).
type Normalization struct {
	// Offset and Scale satisfy normalized = (raw - Offset) * Scale.
	Offset float64
	Scale  float64
}

// NormalizeMinMax rescales all series jointly to [0, 1] using the global
// min and max of the dataset, returning the transform used. The series are
// modified in place. A constant dataset maps to all zeros with Scale 1.
// Non-finite values (NaN, ±Inf) are rejected: a NaN would silently slip
// past the min/max scan (every comparison with it is false) and poison
// the normalized dataset, surfacing only later as a confusing
// domain-violation error in the protocol.
func NormalizeMinMax(set []Series) (Normalization, error) {
	if len(set) == 0 {
		return Normalization{}, ErrEmpty
	}
	min, max := math.Inf(1), math.Inf(-1)
	for i, s := range set {
		if len(s) == 0 {
			return Normalization{}, ErrEmpty
		}
		for j, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return Normalization{}, fmt.Errorf("timeseries: series %d has non-finite value %v at %d", i, v, j)
			}
		}
		if v := s.Min(); v < min {
			min = v
		}
		if v := s.Max(); v > max {
			max = v
		}
	}
	n := Normalization{Offset: min, Scale: 1}
	if max > min {
		n.Scale = 1 / (max - min)
	}
	for _, s := range set {
		for i := range s {
			s[i] = (s[i] - n.Offset) * n.Scale
		}
	}
	return n, nil
}
