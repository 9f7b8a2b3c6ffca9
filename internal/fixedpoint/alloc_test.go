package fixedpoint

import (
	"math/big"
	"math/rand"
	"testing"
)

var (
	sinkFloat float64
	sinkErr   error
)

// TestFixedPointAllocationFree is the allocation gate of the layer: once
// its storage is warm, every encode and decode operation allocates
// nothing — Decode on an int64 and on a 200-bit input (the pooled wide
// branch), EncodeInto on both branches, PackInto, UnpackInto and
// BiasOffset.
func TestFixedPointAllocationFree(t *testing.T) {
	c := MustNew(30)
	l := mustLayout(t, 319, 64, 12)
	rng := rand.New(rand.NewSource(31))
	narrow := big.NewInt(-123456789)
	wide := randomWide(rng, 200)

	const coords = 125
	vs := make([]*big.Int, coords)
	raw := make([]*big.Int, coords)
	for i := range vs {
		vs[i] = new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 60))
		raw[i] = new(big.Int)
	}
	groups := make([]*big.Int, l.Groups(coords))
	for g := range groups {
		groups[g] = new(big.Int)
	}
	enc, off := new(big.Int), new(big.Int)
	dl, err := NewDigitLayout(1023, 50)
	if err != nil {
		t.Fatal(err)
	}
	digits := make([]*big.Int, 22)
	for i := range digits {
		digits[i] = new(big.Int).Rsh(vs[i], 13) // inside the 2^48 budget
		if i%2 == 1 {
			digits[i].Neg(digits[i])
		}
	}
	opened := hornerPack(dl, digits)

	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"Decode/int64", func() { sinkFloat = c.Decode(narrow) }},
		{"Decode/200-bit", func() { sinkFloat = c.Decode(wide) }},
		{"EncodeInto/narrow", func() { _, sinkErr = c.EncodeInto(enc, 0.62831853) }},
		{"EncodeInto/wide", func() { _, sinkErr = c.EncodeInto(enc, -3.5e40) }},
		{"PackInto", func() { sinkErr = l.PackInto(groups, vs) }},
		{"UnpackInto", func() { sinkErr = l.UnpackInto(raw, groups) }},
		{"BiasOffset", func() { sinkErr = l.BiasOffset(off, 2*0.4375) }},
		{"SplitInto", func() { sinkErr = dl.SplitInto(digits, opened) }},
	} {
		tc.op() // warm the destinations (and Decode's pool)
		if sinkErr != nil {
			t.Fatalf("%s: %v", tc.name, sinkErr)
		}
		if allocs := testing.AllocsPerRun(100, tc.op); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per call once warm, want 0", tc.name, allocs)
		}
	}
}
