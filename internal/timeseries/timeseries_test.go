package timeseries

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestAddInPlace(t *testing.T) {
	s := Series{1, 2, 3}
	if err := s.AddInPlace(Series{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if s[0] != 2 || s[1] != 3 || s[2] != 4 {
		t.Fatalf("after add: %v", s)
	}
}

func TestAddInPlaceLengthMismatch(t *testing.T) {
	s := Series{1}
	if err := s.AddInPlace(Series{1, 2}); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("err = %v, want ErrLengthMismatch", err)
	}
}

func TestSum(t *testing.T) {
	s := Series{2, 4, 4, 4, 5, 5, 7, 9}
	if s.Sum() != 40 {
		t.Fatalf("sum = %v", s.Sum())
	}
}

func TestEmptyStats(t *testing.T) {
	var s Series
	if s.Sum() != 0 {
		t.Fatalf("empty series stats should be zero")
	}
	if !math.IsInf(s.Min(), 1) || !math.IsInf(s.Max(), -1) {
		t.Fatalf("empty min/max should be infinities")
	}
}

func TestMinMax(t *testing.T) {
	s := Series{3, -1, 7, 0}
	if s.Min() != -1 || s.Max() != 7 {
		t.Fatalf("min=%v max=%v", s.Min(), s.Max())
	}
}

func TestDistances(t *testing.T) {
	a := Series{0, 0, 0}
	b := Series{1, 2, 2}
	if d, _ := SquaredL2(a, b); !almostEq(d, 9, 1e-12) {
		t.Fatalf("SquaredL2 = %v, want 9", d)
	}
}

func TestDistanceMismatch(t *testing.T) {
	a := Series{1}
	b := Series{1, 2}
	if _, err := SquaredL2(a, b); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("SquaredL2: err = %v, want ErrLengthMismatch", err)
	}
}

func TestDistanceMetricAxioms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randSeries := func() Series {
		s := make(Series, 6)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		return s
	}
	l2 := func(a, b Series) float64 {
		sq, _ := SquaredL2(a, b)
		return math.Sqrt(sq)
	}
	for i := 0; i < 200; i++ {
		a, b, c := randSeries(), randSeries(), randSeries()
		dab, dba := l2(a, b), l2(b, a)
		if !almostEq(dab, dba, 1e-12) {
			t.Fatalf("symmetry violated: %v vs %v", dab, dba)
		}
		daa := l2(a, a)
		if daa != 0 {
			t.Fatalf("identity violated: %v", daa)
		}
		dac, dcb := l2(a, c), l2(c, b)
		if dab > dac+dcb+1e-9 {
			t.Fatalf("triangle inequality violated: %v > %v + %v", dab, dac, dcb)
		}
	}
}

func TestMovingAveragePreservesConstant(t *testing.T) {
	s := Series{3, 3, 3, 3, 3}
	out := MovingAverage(s, 3)
	for i, v := range out {
		if !almostEq(v, 3, 1e-12) {
			t.Fatalf("out[%d] = %v", i, v)
		}
	}
}

func TestMovingAverageWidthOne(t *testing.T) {
	s := Series{1, 5, 2}
	out := MovingAverage(s, 1)
	for i := range s {
		if out[i] != s[i] {
			t.Fatalf("width 1 must copy: %v", out)
		}
	}
}

func TestMovingAverageSmooths(t *testing.T) {
	// Alternating spikes should flatten: variance must strictly drop.
	s := make(Series, 32)
	for i := range s {
		if i%2 == 0 {
			s[i] = 1
		}
	}
	out := MovingAverage(s, 5)
	mean := func(s Series) float64 { return s.Sum() / float64(len(s)) }
	variance := func(s Series) float64 {
		m, acc := mean(s), 0.0
		for _, v := range s {
			acc += (v - m) * (v - m)
		}
		return acc / float64(len(s))
	}
	if variance(out) >= variance(s) {
		t.Fatalf("smoothing did not reduce variance: %v >= %v", variance(out), variance(s))
	}
	// Mean approximately preserved.
	if !almostEq(mean(out), mean(s), 0.06) {
		t.Fatalf("mean drifted: %v vs %v", mean(out), mean(s))
	}
}

func TestExponentialSmoothing(t *testing.T) {
	s := Series{0, 1, 1, 1}
	want := Series{0, 0.5, 0.75, 0.875}
	out := make(Series, len(s))
	if err := ExponentialSmoothingInto(out, s, 0.5); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !almostEq(out[i], want[i], 1e-12) {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
	// In place, dst being s itself.
	if err := ExponentialSmoothingInto(s, s, 0.5); err != nil || !reflect.DeepEqual(s, out) {
		t.Fatalf("in place = %v (%v), want %v", s, err, out)
	}
	if err := ExponentialSmoothingInto(out, s, 0); err == nil {
		t.Fatal("alpha=0 should error")
	}
	if err := ExponentialSmoothingInto(out, s, 1.5); err == nil {
		t.Fatal("alpha>1 should error")
	}
	if err := ExponentialSmoothingInto(nil, nil, 0.5); err != nil {
		t.Fatalf("empty input should be fine: %v", err)
	}
}

func TestClamp(t *testing.T) {
	out := Clamp(Series{-1, 0.5, 2}, 0, 1)
	want := Series{0, 0.5, 1}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("clamp = %v, want %v", out, want)
		}
	}
}
