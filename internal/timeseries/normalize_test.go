package timeseries

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestNormalizeMinMaxBounds(t *testing.T) {
	set := []Series{{-2, 0, 4}, {1, 3, 6}}
	n, err := NormalizeMinMax(set)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range set {
		if v := s.Min(); v < lo {
			lo = v
		}
		if v := s.Max(); v > hi {
			hi = v
		}
	}
	if !almostEq(lo, 0, 1e-12) || !almostEq(hi, 1, 1e-12) {
		t.Fatalf("normalized bounds [%v, %v], want [0, 1]", lo, hi)
	}
	if n.Offset != -2 {
		t.Fatalf("offset = %v, want -2", n.Offset)
	}
}

func TestNormalizeInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	orig := make([]Series, 5)
	set := make([]Series, 5)
	for i := range set {
		s := make(Series, 8)
		for j := range s {
			s[j] = rng.NormFloat64() * 100
		}
		orig[i] = slices.Clone(s)
		set[i] = s
	}
	n, err := NormalizeMinMax(set)
	if err != nil {
		t.Fatal(err)
	}
	// The documented transform normalized = (raw - Offset) * Scale
	// inverts to raw = normalized/Scale + Offset.
	for i := range set {
		for j, v := range set[i] {
			if back := v/n.Scale + n.Offset; !almostEq(back, orig[i][j], 1e-9) {
				t.Fatalf("roundtrip mismatch at [%d][%d]: %v vs %v", i, j, back, orig[i][j])
			}
		}
	}
}

func TestNormalizeConstantDataset(t *testing.T) {
	set := []Series{{5, 5}, {5, 5}}
	n, err := NormalizeMinMax(set)
	if err != nil {
		t.Fatal(err)
	}
	if n.Scale != 1 {
		t.Fatalf("constant dataset scale = %v, want 1", n.Scale)
	}
	for _, s := range set {
		for _, v := range s {
			if v != 0 {
				t.Fatalf("constant dataset should map to 0, got %v", v)
			}
		}
	}
}

func TestNormalizeErrors(t *testing.T) {
	if _, err := NormalizeMinMax(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("nil set: err = %v", err)
	}
	if _, err := NormalizeMinMax([]Series{{}}); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty series: err = %v", err)
	}
}

// TestNormalizeMinMaxEdgeCases is the table-driven battery over the
// degenerate inputs the fault experiments surfaced as worth pinning:
// constant datasets, length-1 series, mixed lengths, and non-finite
// values (which must be rejected up front — a NaN slips through every
// min/max comparison and would poison the whole normalized dataset).
func TestNormalizeMinMaxEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		set     []Series
		wantErr bool
		// want is the expected normalized dataset (checked only when
		// non-nil and the call succeeds).
		want []Series
	}{
		{
			name: "length-1 series",
			set:  []Series{{2}, {4}},
			want: []Series{{0}, {1}},
		},
		{
			name: "single length-1 constant",
			set:  []Series{{7}},
			want: []Series{{0}},
		},
		{
			name: "constant across series",
			set:  []Series{{3, 3}, {3}},
			want: []Series{{0, 0}, {0}},
		},
		{
			name: "negative-only domain",
			set:  []Series{{-8, -6}, {-4}},
			want: []Series{{0, 0.5}, {1}},
		},
		{name: "NaN value", set: []Series{{1, math.NaN()}, {2, 3}}, wantErr: true},
		{name: "+Inf value", set: []Series{{1, 2}, {math.Inf(1), 3}}, wantErr: true},
		{name: "-Inf value", set: []Series{{math.Inf(-1)}}, wantErr: true},
		{name: "NaN in later series", set: []Series{{0, 1}, {math.NaN()}}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Copy so failed calls can assert non-mutation semantics are
			// irrelevant (rejected sets may be partially scanned, never
			// partially scaled).
			set := make([]Series, len(tc.set))
			for i, s := range tc.set {
				set[i] = slices.Clone(s)
			}
			n, err := NormalizeMinMax(set)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("want error, got %+v with %v", n, set)
				}
				for i := range set {
					for j := range set[i] {
						if !(math.IsNaN(tc.set[i][j]) && math.IsNaN(set[i][j])) && set[i][j] != tc.set[i][j] {
							t.Fatalf("rejected input was mutated: %v", set)
						}
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if n.Scale == 0 || math.IsNaN(n.Scale) || math.IsInf(n.Scale, 0) {
				t.Fatalf("degenerate scale %v", n.Scale)
			}
			for i := range tc.want {
				for j := range tc.want[i] {
					if !almostEq(set[i][j], tc.want[i][j], 1e-12) {
						t.Fatalf("set[%d][%d] = %v, want %v", i, j, set[i][j], tc.want[i][j])
					}
				}
			}
		})
	}
}
