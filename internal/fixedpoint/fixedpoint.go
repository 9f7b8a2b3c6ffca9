// Package fixedpoint encodes float64 values as scaled integers so that
// time-series can live in the additively-homomorphic plaintext space
// Z_{n^s} of the Damgård–Jurik cryptosystem.
//
// Two concerns are handled here:
//
//  1. Fractional precision: a value x is stored as round(x * 2^FracBits).
//  2. Signs in a modular ring: Z_M has no negative numbers, so negative
//     encodings are wrapped as M - |v|, and decoding treats any residue
//     above M/2 as negative. Callers must ensure |values| stay far below
//     M/2 (the protocol's plaintext-headroom budget, documented in
//     internal/core).
//
// Every operation has a form that writes into storage its caller owns
// (EncodeInto, SlotLayout.PackInto/UnpackInto/BiasOffset,
// DigitLayout.SplitInto, the in-place sign wrap), and Decode keeps its
// scratch in a pool, so a warmed caller encodes and opens whole vectors
// without allocating.
//
// The power-of-two pre-scaling gossip halving consumes is the caller's:
// see internal/gossip for the contract and internal/core for its use.
package fixedpoint

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"sync"
)

// Codec converts between float64 and scaled big.Int representations.
// The zero value is unusable; use New. A Codec holds no scratch: it is
// shared by concurrent callers.
type Codec struct {
	fracBits uint
	scaleF   float64 // float64(2^fracBits)
}

// ErrNotFinite is returned when encoding NaN or ±Inf.
var ErrNotFinite = errors.New("fixedpoint: value is not finite")

// ErrOverflow is returned when a decoded magnitude cannot be represented.
var ErrOverflow = errors.New("fixedpoint: overflow")

// New returns a Codec with the given number of fractional bits.
// fracBits must be in [0, 128].
func New(fracBits uint) (*Codec, error) {
	if fracBits > 128 {
		return nil, fmt.Errorf("fixedpoint: fracBits %d > 128", fracBits)
	}
	return &Codec{
		fracBits: fracBits,
		scaleF:   math.Ldexp(1, int(fracBits)),
	}, nil
}

// MustNew is New but panics on error; for use with constant arguments.
func MustNew(fracBits uint) *Codec {
	c, err := New(fracBits)
	if err != nil {
		panic(err)
	}
	return c
}

// Encode converts x into a signed scaled integer round(x * 2^fracBits)
// in fresh storage.
func (c *Codec) Encode(x float64) (*big.Int, error) {
	return c.EncodeInto(new(big.Int), x)
}

// EncodeInto sets dst to round(x * 2^fracBits) (nearest-even) and
// returns it; dst's storage is reused.
func (c *Codec) EncodeInto(dst *big.Int, x float64) (*big.Int, error) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return nil, fmt.Errorf("%w: %v", ErrNotFinite, x)
	}
	scaled := x * c.scaleF
	if math.Abs(scaled) < (1 << 62) {
		return dst.SetInt64(int64(math.RoundToEven(scaled))), nil
	}
	// |x·2^fracBits| ≥ 2^62 (or past the float64 range): a 53-bit
	// significand that large is an integer, so the product is exact —
	// x's integer mantissa shifted left by at least 10 bits.
	frac, exp := math.Frexp(x)
	dst.SetInt64(int64(frac * (1 << 53)))
	return dst.Lsh(dst, uint(exp-53+int(c.fracBits))), nil
}

// decodeFloats holds the 256-bit big.Float of Decode's wide-input
// branch: the Codec is shared by concurrent callers, so the scratch is
// pooled rather than owned.
var decodeFloats = sync.Pool{New: func() any { return new(big.Float).SetPrec(256) }}

// Decode converts a signed scaled integer back to float64, v·2^-fracBits
// correctly rounded, nearest-even. Inputs wider than 256 bits are first
// rounded to 256 bits, nearest-even. It allocates nothing once warm.
func (c *Codec) Decode(v *big.Int) float64 {
	if v.IsInt64() {
		// The int64 → float64 conversion is the one rounding: with
		// fracBits ≤ 128 a non-zero result is at least 2^-128, a normal
		// number, so the power-of-two scaling is exact.
		return math.Ldexp(float64(v.Int64()), -int(c.fracBits))
	}
	// big.Float.Float64 rounds through a fresh mantissa, so the rounding
	// to 53 bits happens here, in place, and the significand leaves as an
	// int64: |v|·2^-fracBits is a normal number, where rounding commutes
	// with the power-of-two scaling.
	f := decodeFloats.Get().(*big.Float)
	f.SetInt(v).SetPrec(53)
	exp := f.MantExp(nil)
	mant, _ := f.SetMantExp(f, 53-exp).Int64()
	f.SetPrec(256)
	decodeFloats.Put(f)
	return math.Ldexp(float64(mant), exp-53-int(c.fracBits))
}

// WrapSignedInPlace maps a signed integer v into Z_M in place (negatives
// become M-|v|), with a caller-cached half = M >> 1. |v| must be below
// M/2 so the sign stays recoverable; a magnitude at or above it is
// ErrOverflow.
func WrapSignedInPlace(v, M, half *big.Int) error {
	if v.CmpAbs(half) >= 0 {
		// The error path may allocate: report the magnitude without a
		// stray sign inside the absolute-value bars.
		return fmt.Errorf("%w: |%s| >= M/2", ErrOverflow, new(big.Int).Abs(v).String())
	}
	if v.Sign() < 0 {
		v.Add(v, M)
	}
	return nil
}

// UnwrapSignedInPlace maps a ring element of Z_M back to a signed
// integer in place, with a caller-cached half = M >> 1: residues strictly
// above M/2 become negative.
func UnwrapSignedInPlace(v, M, half *big.Int) error {
	if v.Sign() < 0 || v.Cmp(M) >= 0 {
		return fmt.Errorf("fixedpoint: %s not reduced mod M", v.String())
	}
	if v.Cmp(half) > 0 {
		v.Sub(v, M)
	}
	return nil
}
