package fixedpoint

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(129); err == nil {
		t.Fatal("fracBits > 128 should error")
	}
	if c, err := New(0); err != nil || c.fracBits != 0 {
		t.Fatalf("fracBits 0 should be allowed: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(200) should panic")
		}
	}()
	MustNew(200)
}

func TestEncodeDecodeExactValues(t *testing.T) {
	c := MustNew(16)
	for _, x := range []float64{0, 1, -1, 0.5, -0.25, 1234.0625} {
		v, err := c.Encode(x)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Decode(v); got != x {
			t.Fatalf("roundtrip(%v) = %v", x, got)
		}
	}
}

func TestEncodeRejectsNonFinite(t *testing.T) {
	c := MustNew(8)
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := c.Encode(x); !errors.Is(err, ErrNotFinite) {
			t.Fatalf("Encode(%v): err = %v", x, err)
		}
	}
}

func TestRoundTripPrecisionProperty(t *testing.T) {
	c := MustNew(30)
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
			return true
		}
		v, err := c.Encode(x)
		if err != nil {
			return false
		}
		back := c.Decode(v)
		return math.Abs(back-x) <= math.Ldexp(1, -30)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeAdditivityProperty(t *testing.T) {
	// encode(a) + encode(b) decodes to ~(a+b): the property the
	// homomorphic aggregation relies on.
	c := MustNew(24)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		a := rng.NormFloat64() * 100
		b := rng.NormFloat64() * 100
		va, _ := c.Encode(a)
		vb, _ := c.Encode(b)
		sum := new(big.Int).Add(va, vb)
		if got := c.Decode(sum); math.Abs(got-(a+b)) > math.Ldexp(2, -24) {
			t.Fatalf("decode(enc(%v)+enc(%v)) = %v", a, b, got)
		}
	}
}

// TestWrapUnwrapSigned pins the ring's sign convention: |v| < M/2
// round-trips through the in-place wrap and unwrap, negatives as M-|v|.
func TestWrapUnwrapSigned(t *testing.T) {
	M := big.NewInt(1000)
	half := new(big.Int).Rsh(M, 1)
	for _, v := range []int64{0, 1, -1, 499, -499} {
		w := big.NewInt(v)
		if err := WrapSignedInPlace(w, M, half); err != nil {
			t.Fatalf("wrap(%d): %v", v, err)
		}
		if w.Sign() < 0 || w.Cmp(M) >= 0 {
			t.Fatalf("wrap(%d) = %v not reduced", v, w)
		}
		if err := UnwrapSignedInPlace(w, M, half); err != nil {
			t.Fatal(err)
		}
		if w.Int64() != v {
			t.Fatalf("unwrap(wrap(%d)) = %v", v, w)
		}
	}
}

// TestWrapSignedOverflow pins the rejection at M/2: a magnitude that
// reaches it has no recoverable sign, and the value is left untouched.
func TestWrapSignedOverflow(t *testing.T) {
	M := big.NewInt(1000)
	half := new(big.Int).Rsh(M, 1)
	for _, v := range []int64{500, -500, 501, -999} {
		w := big.NewInt(v)
		if err := WrapSignedInPlace(w, M, half); !errors.Is(err, ErrOverflow) {
			t.Fatalf("wrap(%d): err = %v", v, err)
		}
		if w.Int64() != v {
			t.Fatalf("a rejected wrap(%d) changed the value to %v", v, w)
		}
	}
}

func TestUnwrapSignedValidation(t *testing.T) {
	M := big.NewInt(1000)
	half := new(big.Int).Rsh(M, 1)
	if err := UnwrapSignedInPlace(big.NewInt(-1), M, half); err == nil {
		t.Fatal("negative residue should error")
	}
	if err := UnwrapSignedInPlace(big.NewInt(1000), M, half); err == nil {
		t.Fatal("residue >= M should error")
	}
	if err := UnwrapSignedInPlace(big.NewInt(0), big.NewInt(0), big.NewInt(0)); err == nil {
		t.Fatal("zero modulus should error")
	}
}

// TestWrapUnwrapInPlaceAgreement pins the in-place sign wrap and unwrap
// to the ring's definition across the sign boundaries of an odd modulus,
// like the protocol rings: wrap(v) = v mod M for |v| < M/2, unwrap is its
// inverse on [0, M), and residues strictly above M/2 are the negatives.
func TestWrapUnwrapInPlaceAgreement(t *testing.T) {
	M := big.NewInt(1001)
	half := new(big.Int).Rsh(M, 1)
	for v := int64(-520); v <= 520; v++ {
		got := big.NewInt(v)
		err := WrapSignedInPlace(got, M, half)
		if inRange := v > -500 && v < 500; inRange != (err == nil) {
			t.Fatalf("wrap(%d): error %v", v, err)
		}
		if err != nil {
			if !errors.Is(err, ErrOverflow) {
				t.Fatalf("wrap(%d): error %v is not ErrOverflow", v, err)
			}
			continue
		}
		if want := new(big.Int).Mod(big.NewInt(v), M); want.Cmp(got) != 0 {
			t.Fatalf("wrap(%d): %v, want %v", v, got, want)
		}
	}
	for r := int64(0); r < 1001; r++ {
		got := big.NewInt(r)
		if err := UnwrapSignedInPlace(got, M, half); err != nil {
			t.Fatalf("unwrap(%d): %v", r, err)
		}
		want := r
		if r > 500 {
			want = r - 1001
		}
		if got.Int64() != want {
			t.Fatalf("unwrap(%d): %v, want %d", r, got, want)
		}
	}
}

// TestModRoundTripProperty is the encode → wrap → unwrap → decode
// composition the protocol runs on every one-slot group.
func TestModRoundTripProperty(t *testing.T) {
	c := MustNew(20)
	M := new(big.Int).Lsh(big.NewInt(1), 64)
	M.Sub(M, big.NewInt(59)) // arbitrary odd modulus
	half := new(big.Int).Rsh(M, 1)
	v := new(big.Int)
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
			return true
		}
		if _, err := c.EncodeInto(v, x); err != nil {
			return false
		}
		if WrapSignedInPlace(v, M, half) != nil || UnwrapSignedInPlace(v, M, half) != nil {
			return false
		}
		return math.Abs(c.Decode(v)-x) <= math.Ldexp(1, -20)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestModularAdditionWithSigns(t *testing.T) {
	// Mixed-sign sums must decode correctly through the ring.
	c := MustNew(16)
	M := big.NewInt(1 << 40)
	M.Sub(M, big.NewInt(1))
	half := new(big.Int).Rsh(M, 1)
	a, _ := c.Encode(100.5)
	b, _ := c.Encode(-40.25)
	if WrapSignedInPlace(a, M, half) != nil || WrapSignedInPlace(b, M, half) != nil {
		t.Fatal("wrap failed")
	}
	sum := new(big.Int).Add(a, b)
	sum.Mod(sum, M)
	if err := UnwrapSignedInPlace(sum, M, half); err != nil {
		t.Fatal(err)
	}
	if got := c.Decode(sum); got != 60.25 {
		t.Fatalf("(-40.25 + 100.5) via ring = %v", got)
	}
}

// TestEncodeDecodeSeries encodes a series element by element into one
// reused integer, as the protocol encodes a contribution vector.
func TestEncodeDecodeSeries(t *testing.T) {
	c := MustNew(12)
	v := new(big.Int)
	for _, x := range []float64{1.5, -2.25, 0, 3e30, -7} {
		got, err := c.EncodeInto(v, x)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatal("EncodeInto must return its destination")
		}
		if back := c.Decode(v); back != x {
			t.Fatalf("series roundtrip(%v) = %v", x, back)
		}
	}
	if _, err := c.EncodeInto(v, math.NaN()); err == nil {
		t.Fatal("NaN in series should error")
	}
}

func TestExtremeMagnitudeEncode(t *testing.T) {
	// Exercise the big.Float slow path.
	c := MustNew(64)
	x := 1e30
	v, err := c.Encode(x)
	if err != nil {
		t.Fatal(err)
	}
	back := c.Decode(v)
	if math.Abs(back-x)/x > 1e-12 {
		t.Fatalf("extreme roundtrip: %v vs %v", back, x)
	}
}
