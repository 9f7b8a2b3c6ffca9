package fixedpoint

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

func mustLayout(t *testing.T, plainBits int, magBits, headBits uint) *SlotLayout {
	t.Helper()
	l, err := NewSlotLayout(plainBits, magBits, headBits)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestSlotLayoutGeometry(t *testing.T) {
	l := mustLayout(t, 320, 40, 9) // slotBits = 50
	if l.slotBits != 50 {
		t.Fatalf("slotBits = %d, want 50", l.slotBits)
	}
	if l.Slots() != 6 {
		t.Fatalf("slots = %d, want 6", l.Slots())
	}
	for _, tc := range []struct{ coords, groups int }{
		{1, 1}, {6, 1}, {7, 2}, {12, 2}, {13, 3},
	} {
		if g := l.Groups(tc.coords); g != tc.groups {
			t.Fatalf("Groups(%d) = %d, want %d", tc.coords, g, tc.groups)
		}
	}
	if _, err := NewSlotLayout(40, 40, 9); err == nil {
		t.Fatal("plaintext smaller than one slot must fail")
	}
	if _, err := NewSlotLayout(0, 4, 2); err == nil {
		t.Fatal("zero plaintext capacity must fail")
	}
}

// TestSlotPackUnpackRoundTrip packs signed values across the sign and
// magnitude edges and checks Unpack minus BiasOffset(1) recovers them
// exactly.
func TestSlotPackUnpackRoundTrip(t *testing.T) {
	l := mustLayout(t, 512, 32, 8)
	edge := new(big.Int).Sub(l.bias, big.NewInt(1))
	vs := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(-1),
		new(big.Int).Set(edge),
		new(big.Int).Neg(edge),
		big.NewInt(123456789),
		big.NewInt(-987654321),
	}
	packed, err := l.Pack(vs)
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) != l.Groups(len(vs)) {
		t.Fatalf("%d groups, want %d", len(packed), l.Groups(len(vs)))
	}
	raw, err := l.Unpack(packed, len(vs))
	if err != nil {
		t.Fatal(err)
	}
	off := new(big.Int)
	if err := l.BiasOffset(off, 1); err != nil {
		t.Fatal(err)
	}
	for i, r := range raw {
		if got := new(big.Int).Sub(r, off); got.Cmp(vs[i]) != 0 {
			t.Fatalf("coordinate %d: %s, want %s", i, got, vs[i])
		}
	}
}

// TestSlotPackRandomized is the property test: random signed vectors of
// random lengths round-trip through Pack/Unpack/BiasOffset, slot-wise
// sums of packed vectors equal the pack of the sums (the additive
// homomorphism packing must preserve), and PackInto/UnpackInto into
// storage reused across trials of every length agree with Pack/Unpack.
func TestSlotPackRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	l := mustLayout(t, 1023, 48, 12)
	reused := make([]*big.Int, 3*l.Slots())
	for i := range reused {
		reused[i] = new(big.Int)
	}
	off := new(big.Int)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(3*l.Slots())
		vs := make([]*big.Int, n)
		sum := make([]*big.Int, n)
		adds := 1 + rng.Intn(4)
		acc := make([]*big.Int, l.Groups(n))
		for a := range acc {
			acc[a] = new(big.Int)
		}
		for rep := 0; rep < adds; rep++ {
			for i := range vs {
				v := new(big.Int).Rand(rng, l.bias)
				if rng.Intn(2) == 0 {
					v.Neg(v)
				}
				vs[i] = v
				if rep == 0 {
					sum[i] = new(big.Int).Set(v)
				} else {
					sum[i].Add(sum[i], v)
				}
			}
			packed, err := l.Pack(vs)
			if err != nil {
				t.Fatal(err)
			}
			into := reused[:len(packed)]
			if err := l.PackInto(into, vs); err != nil {
				t.Fatal(err)
			}
			for g := range packed {
				if into[g].Cmp(packed[g]) != 0 {
					t.Fatalf("trial %d group %d: PackInto %s, Pack %s", trial, g, into[g], packed[g])
				}
				acc[g].Add(acc[g], packed[g])
			}
		}
		raw, err := l.Unpack(acc, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.UnpackInto(reused[:n], acc); err != nil {
			t.Fatal(err)
		}
		if err := l.BiasOffset(off, float64(adds)); err != nil {
			t.Fatal(err)
		}
		for i, r := range raw {
			if reused[i].Cmp(r) != 0 {
				t.Fatalf("trial %d coordinate %d: UnpackInto %s, Unpack %s", trial, i, reused[i], r)
			}
			if got := new(big.Int).Sub(r, off); got.Cmp(sum[i]) != 0 {
				t.Fatalf("trial %d coordinate %d: %s, want %s", trial, i, got, sum[i])
			}
		}
	}
}

// TestSlotHalvingExactness checks the core contract: a packed plaintext
// of values carrying preScale factors of two is itself a multiple of
// 2^preScale (every slot is, and so is every bias), so the protocol can
// encrypt packed>>preScale and carry the halvings as an exponent h beside
// the ciphertext; for every h up to preScale the decoder's
// (packed>>preScale)<<(preScale−h) is the slot-aligned integer h exact
// halvings of the packed plaintext give, and the BiasOffset of the halved
// weight recovers the halved values.
func TestSlotHalvingExactness(t *testing.T) {
	const preScale = 12
	l := mustLayout(t, 640, 40, 10)
	rng := rand.New(rand.NewSource(7))
	max := big.NewInt(1 << 20)
	vs := make([]*big.Int, l.Slots()+2)
	for i := range vs {
		v := new(big.Int).Rand(rng, max)
		if i%2 == 1 {
			v.Neg(v)
		}
		vs[i] = v.Lsh(v, preScale) // packed at the pre-scaled magnitude
	}
	packed, err := l.Pack(vs)
	if err != nil {
		t.Fatal(err)
	}
	shares := make([]*big.Int, len(packed)) // what is encrypted: exponent 0
	for g, p := range packed {
		if p.TrailingZeroBits() < preScale {
			t.Fatalf("packed plaintext %d carries %d factors of two, want >= %d — shifting the pre-scale out would round", g, p.TrailingZeroBits(), preScale)
		}
		shares[g] = new(big.Int).Rsh(p, preScale)
	}
	weight := 1.0
	for round := 1; round <= preScale; round++ {
		opened := make([]*big.Int, len(shares)) // what the decoder rebuilds at exponent = round
		for g, s := range shares {
			opened[g] = new(big.Int).Lsh(s, uint(preScale-round))
			if want := new(big.Int).Rsh(packed[g], uint(round)); opened[g].Cmp(want) != 0 {
				t.Fatalf("round %d: plaintext %d rebuilt as %s, %d exact halvings give %s", round, g, opened[g], round, want)
			}
		}
		weight /= 2
		raw, err := l.Unpack(opened, len(vs))
		if err != nil {
			t.Fatal(err)
		}
		off := new(big.Int)
		if err := l.BiasOffset(off, weight); err != nil {
			t.Fatal(err)
		}
		for i, r := range raw {
			got := new(big.Int).Sub(r, off)
			want := new(big.Int).Rsh(vs[i], uint(round))
			if got.Cmp(want) != 0 {
				t.Fatalf("round %d coordinate %d: %s, want %s", round, i, got, want)
			}
		}
	}
}

func TestSlotOverflowAccounting(t *testing.T) {
	l := mustLayout(t, 256, 16, 6)

	// Pack rejects magnitudes at the bias.
	if _, err := l.Pack([]*big.Int{l.bias}); err == nil {
		t.Fatal("Pack must reject |v| >= bias")
	}
	if _, err := l.Pack([]*big.Int{new(big.Int).Neg(l.bias)}); err == nil {
		t.Fatal("Pack must reject |v| >= bias (negative)")
	}
	if _, err := l.Pack([]*big.Int{nil}); err == nil {
		t.Fatal("Pack must reject nil coordinates")
	}

	// PackInto rejects a destination of the wrong group count.
	if err := l.PackInto([]*big.Int{new(big.Int)}, make([]*big.Int, l.Slots()+1)); err == nil {
		t.Fatal("PackInto must reject a group-count mismatch")
	}

	// Unpack rejects group-count mismatches and top-slot overflow.
	if _, err := l.Unpack([]*big.Int{big.NewInt(1)}, 2*l.Slots()); err == nil {
		t.Fatal("Unpack must reject a group-count mismatch")
	}
	over := new(big.Int).Lsh(big.NewInt(1), uint(l.Slots())*l.slotBits)
	if _, err := l.Unpack([]*big.Int{over}, 1); err == nil {
		t.Fatal("Unpack must reject values past the top slot")
	}
	if _, err := l.Unpack([]*big.Int{big.NewInt(-1)}, 1); err == nil {
		t.Fatal("Unpack must reject negative plaintexts")
	}

	// BiasOffset rejects weights whose dyadic denominator exceeds the
	// bias' halving budget, and invalid weights.
	tiny := 1.0
	for i := 0; i < 20; i++ { // 2^-20 < 2^-16 = 1/bias
		tiny /= 2
	}
	off := new(big.Int)
	if err := l.BiasOffset(off, tiny); err == nil {
		t.Fatal("BiasOffset must reject weights beyond the bias' factors of two")
	}
	if err := l.BiasOffset(off, -0.5); err == nil {
		t.Fatal("BiasOffset must reject negative weights")
	}
	if err := l.BiasOffset(off, math.NaN()); err == nil {
		t.Fatal("BiasOffset must reject NaN")
	}

	// Empty input packs to nothing.
	if out, err := l.Pack(nil); err != nil || out != nil {
		t.Fatalf("Pack(nil) = %v, %v", out, err)
	}
}
