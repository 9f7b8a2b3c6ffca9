package fixedpoint

import (
	"errors"
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

// mustWidth is a layout of the given slot width with one bit of
// headroom: the split's budget, 2^(width−2), is then the widest
// coordinate Pack accepts.
func mustWidth(t *testing.T, plainBits int, width uint) *SlotLayout {
	t.Helper()
	return mustLayout(t, plainBits, width-2, 1)
}

// hornerPack is PackInto without its per-contribution bound: the packed
// form of slot sums, which may use the whole split budget.
func hornerPack(l *SlotLayout, vs []*big.Int) []*big.Int {
	out := make([]*big.Int, l.Groups(len(vs)))
	for g := range out {
		lo := g * l.Slots()
		hi := min(lo+l.Slots(), len(vs))
		acc := new(big.Int).Set(vs[hi-1])
		for j := hi - 2; j >= lo; j-- {
			acc.Lsh(acc, l.width)
			acc.Add(acc, vs[j])
		}
		out[g] = acc
	}
	return out
}

// ring is Z_M with M = 2^(plainBits+1) − 1, the accounted backend's
// plaintext ring, and its M/2.
func ring(plainBits int) (M, half *big.Int) {
	M = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(plainBits+1)), big.NewInt(1))
	return M, new(big.Int).Rsh(M, 1)
}

// throughRing takes signed packed plaintexts through the ring's sign
// wrap and back, as encryption and opening do.
func throughRing(t *testing.T, packed []*big.Int, M, half *big.Int) {
	t.Helper()
	for _, p := range packed {
		if err := WrapSignedInPlace(p, M, half); err != nil {
			t.Fatal(err)
		}
		if err := UnwrapSignedInPlace(p, M, half); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSlotLayoutGeometry(t *testing.T) {
	for _, tc := range []struct {
		plainBits         int
		magBits, headBits uint
		width             uint
		slots             int
	}{
		{320, 40, 9, 50, 6},
		{1023, 31, 18, 50, 20}, // a 1024-bit Damgård–Jurik key at crypto-dj's budget
		{1023, 64, 12, 77, 13},
		{319, 64, 12, 77, 4},
		{127, 62, 1, 64, 1},
		{127, 61, 1, 63, 2},
	} {
		l := mustLayout(t, tc.plainBits, tc.magBits, tc.headBits)
		if l.Slots() != tc.slots || l.width != tc.width {
			t.Fatalf("(%d, %d, %d): %d slots of %d bits, want %d of %d",
				tc.plainBits, tc.magBits, tc.headBits, l.Slots(), l.width, tc.slots, tc.width)
		}
	}
	l := mustLayout(t, 320, 40, 9)
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
	if _, err := NewSlotLayout(320, 40, 0); err == nil {
		t.Fatal("a slot without headroom must fail")
	}
}

// TestSlotPackUnpackRoundTrip packs signed values across the sign and
// magnitude edges, takes them through the ring's sign wrap, and checks
// Unpack recovers them exactly.
func TestSlotPackUnpackRoundTrip(t *testing.T) {
	l := mustLayout(t, 512, 32, 8)
	M, half := ring(512)
	edge := new(big.Int).Sub(l.mag, big.NewInt(1))
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
	throughRing(t, packed, M, half)
	got, err := l.Unpack(packed, len(vs))
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		if g.Cmp(vs[i]) != 0 {
			t.Fatalf("coordinate %d: %s, want %s", i, g, vs[i])
		}
	}
}

// TestSlotPackRandomized is the property test: random signed vectors of
// random lengths round-trip through Pack/Unpack, slot-wise sums of
// packed vectors — taken modulo the ring, signs wrapped — equal the pack
// of the sums (the additive homomorphism packing must preserve), and
// PackInto/UnpackInto into storage reused across trials of every length
// agree with Pack/Unpack.
func TestSlotPackRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	l := mustLayout(t, 1023, 48, 12)
	M, half := ring(1023)
	reused := make([]*big.Int, 3*l.Slots())
	for i := range reused {
		reused[i] = new(big.Int)
	}
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
				v := new(big.Int).Rand(rng, l.mag)
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
				if err := WrapSignedInPlace(packed[g], M, half); err != nil {
					t.Fatal(err)
				}
				acc[g].Add(acc[g], packed[g])
				acc[g].Mod(acc[g], M)
			}
		}
		for _, a := range acc {
			if err := UnwrapSignedInPlace(a, M, half); err != nil {
				t.Fatal(err)
			}
		}
		got, err := l.Unpack(acc, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.UnpackInto(reused[:n], acc); err != nil {
			t.Fatal(err)
		}
		for i, g := range got {
			if reused[i].Cmp(g) != 0 {
				t.Fatalf("trial %d coordinate %d: UnpackInto %s, Unpack %s", trial, i, reused[i], g)
			}
			if g.Cmp(sum[i]) != 0 {
				t.Fatalf("trial %d coordinate %d: %s, want %s", trial, i, g, sum[i])
			}
		}
	}
}

// TestSlotHalvingExactness checks the contract a push-sum run relies on.
// A share (P, h) stands for P·2^(T−h): a halving is h++, and merging two
// shares doubles the one at the lower exponent up to the other's. Both
// are integer-linear in the packed plaintext, so the unpacked slots of
// any such share, shifted by what is left of the budget T − h, are
// exactly what eagerly halving the 2^T-pre-scaled coordinates gives.
func TestSlotHalvingExactness(t *testing.T) {
	const preScale = 12
	l := mustLayout(t, 640, 40, preScale+2)
	M, half := ring(640)
	rng := rand.New(rand.NewSource(7))
	draw := func() []*big.Int {
		vs := make([]*big.Int, l.Slots()+2)
		for i := range vs {
			vs[i] = new(big.Int).Rand(rng, big.NewInt(1<<20))
			if i%2 == 1 {
				vs[i].Neg(vs[i])
			}
		}
		return vs
	}
	a, b := draw(), draw()
	pa, err := l.Pack(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := l.Pack(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append(pa, pb...) {
		if err := WrapSignedInPlace(p, M, half); err != nil {
			t.Fatal(err)
		}
	}
	// Share a halved ha times merges share b halved hb ≤ ha times: b is
	// doubled ha − hb times, then added.
	for ha := 0; ha <= preScale; ha++ {
		for hb := 0; hb <= ha; hb++ {
			merged := make([]*big.Int, len(pa))
			for g := range merged {
				merged[g] = new(big.Int).Lsh(pb[g], uint(ha-hb))
				merged[g].Add(merged[g], pa[g])
				merged[g].Mod(merged[g], M)
				if err := UnwrapSignedInPlace(merged[g], M, half); err != nil {
					t.Fatal(err)
				}
			}
			got, err := l.Unpack(merged, len(a))
			if err != nil {
				t.Fatalf("ha=%d hb=%d: %v", ha, hb, err)
			}
			for i, g := range got {
				g.Lsh(g, uint(preScale-ha))
				want := new(big.Int).Rsh(new(big.Int).Lsh(a[i], preScale), uint(ha))
				want.Add(want, new(big.Int).Rsh(new(big.Int).Lsh(b[i], preScale), uint(hb)))
				if g.Cmp(want) != 0 {
					t.Fatalf("ha=%d hb=%d coordinate %d: %s, eager halving %s", ha, hb, i, g, want)
				}
			}
		}
	}
}

func TestSlotOverflowAccounting(t *testing.T) {
	l := mustLayout(t, 256, 16, 6)

	// Pack rejects magnitudes at 2^magBits.
	if _, err := l.Pack([]*big.Int{l.mag}); !errors.Is(err, ErrSlotOverflow) {
		t.Fatalf("Pack of |v| = 2^magBits: %v, want ErrSlotOverflow", err)
	}
	if _, err := l.Pack([]*big.Int{new(big.Int).Neg(l.mag)}); !errors.Is(err, ErrSlotOverflow) {
		t.Fatalf("Pack of v = −2^magBits: %v, want ErrSlotOverflow", err)
	}
	if _, err := l.Pack([]*big.Int{nil}); err == nil {
		t.Fatal("Pack must reject nil coordinates")
	}

	// PackInto rejects a destination of the wrong group count.
	if err := l.PackInto([]*big.Int{new(big.Int)}, make([]*big.Int, l.Slots()+1)); err == nil {
		t.Fatal("PackInto must reject a group-count mismatch")
	}

	// Unpack rejects group-count mismatches, nil plaintexts and sums past
	// the split budget.
	if _, err := l.Unpack([]*big.Int{big.NewInt(1)}, 2*l.Slots()); err == nil {
		t.Fatal("Unpack must reject a group-count mismatch")
	}
	if _, err := l.Unpack([]*big.Int{nil}, 1); err == nil {
		t.Fatal("Unpack must reject a nil plaintext")
	}
	if _, err := l.Unpack([]*big.Int{new(big.Int).Set(l.bound)}, 1); !errors.Is(err, ErrSlotOverflow) {
		t.Fatalf("Unpack of a sum at 2^(width−2): %v, want ErrSlotOverflow", err)
	}

	// Empty input packs to nothing.
	if out, err := l.Pack(nil); err != nil || out != nil {
		t.Fatalf("Pack(nil) = %v, %v", out, err)
	}
}

// TestDigitSplitRoundTrip packs signed slot sums across the split
// budget's edges, takes them through the ring's sign wrap, and splits
// them back exactly, for full and partial last groups.
func TestDigitSplitRoundTrip(t *testing.T) {
	const plainBits = 319
	M, half := ring(plainBits)
	rng := rand.New(rand.NewSource(5))
	for _, width := range []uint{3, 17, 50, 65, 106, 160, 319} {
		l := mustWidth(t, plainBits, width)
		edge := new(big.Int).Sub(l.bound, big.NewInt(1))
		for _, coords := range []int{1, l.Slots(), l.Slots() + 1, 3*l.Slots() - 1} {
			for trial := 0; trial < 20; trial++ {
				vs := make([]*big.Int, coords)
				for i := range vs {
					switch trial {
					case 0:
						vs[i] = new(big.Int).Set(edge)
					case 1:
						vs[i] = new(big.Int).Neg(edge)
					case 2:
						vs[i] = new(big.Int).Set(edge)
						if i%2 == 1 {
							vs[i].Neg(vs[i])
						}
					default:
						vs[i] = new(big.Int).Rand(rng, new(big.Int).Lsh(l.bound, 1))
						vs[i].Sub(vs[i], l.bound)
						if vs[i].CmpAbs(l.bound) >= 0 {
							vs[i].Set(edge)
						}
					}
				}
				packed := hornerPack(l, vs)
				throughRing(t, packed, M, half)
				got, err := l.Unpack(packed, coords)
				if err != nil {
					t.Fatalf("width %d, %d coords, trial %d: %v", width, coords, trial, err)
				}
				for i := range vs {
					if got[i].Cmp(vs[i]) != 0 {
						t.Fatalf("width %d, %d coords, trial %d: coordinate %d = %s, want %s", width, coords, trial, i, got[i], vs[i])
					}
				}
			}
		}
	}
}

// TestDigitSplitOutOfBudget: a slot sum beyond ±2^(width−2) fails the
// split instead of carrying into its neighbour, and so does a plaintext
// with more than its group's digits.
func TestDigitSplitOutOfBudget(t *testing.T) {
	l := mustWidth(t, 319, 50)
	for _, over := range []*big.Int{
		new(big.Int).Set(l.bound),
		new(big.Int).Neg(l.bound),
		new(big.Int).Add(new(big.Int).Lsh(l.bound, 1), big.NewInt(1)), // 2^(w−1)+1: would carry
		new(big.Int).Neg(new(big.Int).Lsh(l.bound, 1)),
		new(big.Int).Sub(new(big.Int).Mul(l.bound, big.NewInt(3)), big.NewInt(1)),
	} {
		for pos := 0; pos < 3; pos++ {
			vs := []*big.Int{big.NewInt(7), big.NewInt(-7), big.NewInt(11)}
			vs[pos] = over
			if _, err := l.Unpack(hornerPack(l, vs), len(vs)); !errors.Is(err, ErrSlotOverflow) {
				t.Fatalf("coordinate %d = %s: split error %v, want ErrSlotOverflow", pos, over, err)
			}
		}
	}
	// A third digit in a group of two.
	three := hornerPack(l, []*big.Int{big.NewInt(1), big.NewInt(2), big.NewInt(3)})
	if _, err := l.Unpack(three, 2); !errors.Is(err, ErrSlotOverflow) {
		t.Fatalf("extra digit: %v, want ErrSlotOverflow", err)
	}
	if _, err := l.Unpack(three, l.Slots()+1); err == nil {
		t.Fatal("a group-count mismatch must fail")
	}
}
