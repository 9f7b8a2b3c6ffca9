package fixedpoint

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sync"
	"testing"
)

// The fixed-point arithmetic as it was computed through math/big
// temporaries — a 256-bit big.Float quotient per decoded coordinate, a
// big.Rat product per unbiased slot, a big.Float product for wide
// encodings — kept as the oracle the allocation-free forms must match:
// the same integers, the same Float64bits, the same errors.

// oracleDecode is v / 2^fracBits through 256-bit big.Float arithmetic.
func oracleDecode(c *Codec, v *big.Int) float64 {
	scale := new(big.Int).Lsh(big.NewInt(1), c.fracBits)
	f := new(big.Float).SetPrec(256).SetInt(v)
	f.Quo(f, new(big.Float).SetInt(scale))
	out, _ := f.Float64()
	return out
}

// oracleEncode is round(x·2^fracBits), wide magnitudes through a
// 256-bit big.Float product.
func oracleEncode(c *Codec, x float64) (*big.Int, error) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return nil, fmt.Errorf("%w: %v", ErrNotFinite, x)
	}
	scaled := x * c.scaleF
	if math.Abs(scaled) < (1 << 62) {
		return big.NewInt(int64(math.RoundToEven(scaled))), nil
	}
	f := new(big.Float).SetPrec(256).SetFloat64(x)
	f.Mul(f, new(big.Float).SetInt(new(big.Int).Lsh(big.NewInt(1), c.fracBits)))
	out, _ := f.Int(nil)
	return out, nil
}

// oracleUnbias removes the aggregated bias bias·biasWeight from a raw
// slot field, the product taken exactly over the rationals.
func oracleUnbias(l *SlotLayout, raw *big.Int, biasWeight float64) (*big.Int, error) {
	if raw == nil || raw.Sign() < 0 {
		return nil, errors.New("fixedpoint: invalid raw slot field")
	}
	r := new(big.Rat).SetFloat64(biasWeight)
	if r == nil || r.Sign() < 0 {
		return nil, fmt.Errorf("fixedpoint: invalid bias weight %v", biasWeight)
	}
	r.Mul(r, new(big.Rat).SetInt(l.bias))
	if !r.IsInt() {
		return nil, fmt.Errorf("fixedpoint: bias weight %v exceeds the bias' halving budget", biasWeight)
	}
	return new(big.Int).Sub(raw, r.Num()), nil
}

// decodeEdges are the integers where a float64 conversion can go wrong:
// the 53-bit significand limit and its ties, the int64 boundary Decode
// branches on, the 256-bit precision of the wide branch, and the width
// of a plaintext.
func decodeEdges() []*big.Int {
	var out []*big.Int
	one := big.NewInt(1)
	for _, k := range []uint{0, 1, 52, 53, 54, 62, 63, 64, 65, 200, 255, 256, 257, 300, 318} {
		p := new(big.Int).Lsh(one, k)
		for _, d := range []int64{-3, -1, 0, 1, 3} {
			v := new(big.Int).Add(p, big.NewInt(d))
			out = append(out, v, new(big.Int).Neg(v))
		}
	}
	// Ties at 53 bits whose sticky bits sit beyond the 256-bit branch's
	// precision, and ties exactly at it.
	for _, k := range []uint{60, 100, 256, 300} {
		tie := new(big.Int).Lsh(big.NewInt(1<<53+1), k-53)
		out = append(out, tie, new(big.Int).Add(tie, one), new(big.Int).Sub(tie, one))
	}
	out = append(out, big.NewInt(0), big.NewInt(math.MaxInt64), big.NewInt(math.MinInt64))
	return out
}

// randomWide draws a signed integer of exactly bits bits (0 for bits 0).
func randomWide(rng *rand.Rand, bits int) *big.Int {
	if bits == 0 {
		return new(big.Int)
	}
	v := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits-1)))
	v.SetBit(v, bits-1, 1)
	if rng.Intn(2) == 0 {
		v.Neg(v)
	}
	return v
}

func requireDecodeMatches(t *testing.T, c *Codec, v *big.Int) {
	t.Helper()
	got, want := c.Decode(v), oracleDecode(c, v)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Decode(%s) at fracBits %d = %v (%#x), oracle %v (%#x)",
			v, c.fracBits, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestDecodeMatchesOracle demands Float64bits equality with the big.Float
// quotient on the edge table and on random integers of 0–319 bits, both
// signs, at every fracBits in 0–128.
func TestDecodeMatchesOracle(t *testing.T) {
	edges := decodeEdges()
	for fb := uint(0); fb <= 128; fb++ {
		c := MustNew(fb)
		for _, v := range edges {
			requireDecodeMatches(t, c, v)
		}
	}
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 50000; i++ {
		requireDecodeMatches(t, MustNew(uint(rng.Intn(129))), randomWide(rng, rng.Intn(320)))
	}
}

// TestDecodeConcurrent decodes wide integers from several goroutines at
// once through one Codec, as a run's shard workers do: the pooled
// big.Float is never shared between two decodes in flight.
func TestDecodeConcurrent(t *testing.T) {
	c := MustNew(40)
	rng := rand.New(rand.NewSource(32))
	vs := make([]*big.Int, 64)
	want := make([]float64, len(vs))
	for i := range vs {
		vs[i] = randomWide(rng, 64+rng.Intn(256))
		want[i] = oracleDecode(c, vs[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 200; rep++ {
				for i, v := range vs {
					if got := c.Decode(v); math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Errorf("concurrent Decode(%s) = %v, oracle %v", v, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestEncodeMatchesOracle holds EncodeInto, both branches, to the
// big.Float product: random magnitudes over the whole float64 exponent
// range and the 2^62 boundary, at every fracBits, into reused storage.
func TestEncodeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	dst := new(big.Int)
	check := func(c *Codec, x float64) {
		t.Helper()
		want, werr := oracleEncode(c, x)
		got, gerr := c.EncodeInto(dst, x)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("EncodeInto(%v) at fracBits %d: error %v, oracle %v", x, c.fracBits, gerr, werr)
		}
		if werr == nil && got.Cmp(want) != 0 {
			t.Fatalf("EncodeInto(%v) at fracBits %d = %s, oracle %s", x, c.fracBits, got, want)
		}
	}
	for fb := uint(0); fb <= 128; fb++ {
		c := MustNew(fb)
		for _, x := range []float64{0, math.Copysign(0, -1), 1, -1, 0.5, math.MaxFloat64, -math.MaxFloat64,
			math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1)} {
			check(c, x)
		}
		edge := math.Ldexp(1, 62-int(fb))
		for _, x := range []float64{edge, math.Nextafter(edge, 0), math.Nextafter(edge, math.Inf(1)), -edge} {
			check(c, x)
		}
	}
	for i := 0; i < 50000; i++ {
		x := math.Ldexp(rng.Float64()+0.5, rng.Intn(2200)-1100)
		if rng.Intn(2) == 0 {
			x = -x
		}
		check(MustNew(uint(rng.Intn(129))), x)
	}
}

// biasWeightEdges are the weights BiasOffset must treat exactly as the
// rational product does: dyadic at and past the bias' halving budget,
// non-dyadic, zero of both signs, subnormal, huge, negative and
// non-finite.
func biasWeightEdges(magBits uint) []float64 {
	m := int(magBits)
	return []float64{
		1, 2, 3, 0.5, 0.75, 1.75, 1e6, 1 << 40, 1e300, math.MaxFloat64,
		math.Ldexp(1, -m), math.Ldexp(1, -m-1), math.Ldexp(3, -m), math.Ldexp(3, -m-1),
		math.Ldexp(1<<52+1, -m-52), math.Ldexp(1<<52+1, -m-53),
		0.1, 1.0 / 3, math.Pi, 2.2,
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, 2.5e-310, math.Ldexp(1, -1022),
		-0.5, -1, -math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
}

func requireBiasOffsetMatches(t *testing.T, l *SlotLayout, raw, off *big.Int, w float64) {
	t.Helper()
	want, werr := oracleUnbias(l, raw, w)
	gerr := l.BiasOffset(off, w)
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("BiasOffset(%v) at magBits %d: error %v, oracle %v", w, l.magBits, gerr, werr)
	}
	if werr != nil {
		return
	}
	if got := new(big.Int).Sub(raw, off); got.Cmp(want) != 0 {
		t.Fatalf("raw − BiasOffset(%v) at magBits %d = %s, oracle %s", w, l.magBits, got, want)
	}
}

// TestBiasOffsetMatchesOracle demands that subtracting one BiasOffset is
// exactly the rational Unbias, in value and in accept/reject with the
// same message, on the edge table and on random dyadic weights around
// each layout's halving budget.
func TestBiasOffsetMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	off := new(big.Int)
	for _, magBits := range []uint{0, 1, 16, 40, 64, 100} {
		l := mustLayout(t, 1024, magBits, 12)
		raw := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 900))
		for _, w := range biasWeightEdges(magBits) {
			requireBiasOffsetMatches(t, l, raw, off, w)
		}
		for i := 0; i < 20000; i++ {
			mant := rng.Int63n(1 << uint(1+rng.Intn(53)))
			w := math.Ldexp(float64(mant), rng.Intn(2*int(magBits)+80)-int(magBits)-60)
			requireBiasOffsetMatches(t, l, raw, off, w)
		}
	}
}

// FuzzDecodeMatchesOracle: any integer up to 320 bits, either sign, any
// fracBits decodes to the oracle's Float64bits.
func FuzzDecodeMatchesOracle(f *testing.F) {
	for _, v := range decodeEdges() {
		f.Add(v.Bytes(), v.Sign() < 0, uint8(30))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, false, uint8(128))
	f.Fuzz(func(t *testing.T, mag []byte, neg bool, fracBits uint8) {
		if len(mag) > 40 {
			mag = mag[:40]
		}
		v := new(big.Int).SetBytes(mag)
		if neg {
			v.Neg(v)
		}
		requireDecodeMatches(t, MustNew(uint(fracBits)%129), v)
	})
}
