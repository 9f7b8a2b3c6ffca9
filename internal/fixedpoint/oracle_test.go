package fixedpoint

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sync"
	"testing"
)

// The fixed-point arithmetic as it was computed through math/big
// temporaries — a 256-bit big.Float quotient per decoded coordinate, a
// big.Float product for wide encodings — kept as the oracle the allocation-free forms must match:
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
