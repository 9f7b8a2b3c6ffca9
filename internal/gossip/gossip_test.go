package gossip

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"chiaroscuro/internal/vecpool"
)

func TestNewStateValidation(t *testing.T) {
	ring := FloatRing{}
	if _, err := NewState[float64](nil, []float64{1}, 1); err == nil {
		t.Fatal("nil ring should error")
	}
	if _, err := NewState[float64](ring, nil, 1); err == nil {
		t.Fatal("empty values should error")
	}
	if _, err := NewState[float64](ring, []float64{1}, -1); err == nil {
		t.Fatal("negative weight should error")
	}
}

// TestReinitRearmsInPlace: a used state re-armed over new values is the
// state NewState builds over them, in the storage it already had; a
// refused Reinit leaves it as it was.
func TestReinitRearmsInPlace(t *testing.T) {
	ring := FloatRing{}
	st, _ := NewState[float64](ring, []float64{1, 2, 3}, 1)
	_, _ = st.AbsorbAll([]*Message[float64]{st.Emit(), st.Emit()}, nil)
	at := &st.V[0]
	if err := st.Reinit(ring, []float64{5, 7, 9}, 0.5); err != nil {
		t.Fatal(err)
	}
	want, _ := NewState[float64](ring, []float64{5, 7, 9}, 0.5)
	if st.W != want.W || st.H != want.H || len(st.V) != 3 || st.V[0] != 5 || st.V[1] != 7 || st.V[2] != 9 {
		t.Fatalf("re-armed state %+v, want %+v", st, want)
	}
	if &st.V[0] != at {
		t.Fatal("Reinit reallocated the value slice")
	}
	if err := st.Reinit(ring, nil, 1); err == nil || st.W != 0.5 || st.V[0] != 5 {
		t.Fatalf("refused Reinit: err %v, state %+v", err, st)
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = st.Reinit(ring, []float64{1, 1, 1}, 1) }); allocs != 0 {
		t.Fatalf("Reinit allocates %v objects", allocs)
	}
}

// shares reads a float state's (or message's) represented shares
// V·2^{-H}.
func shares(v []float64, h uint) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = math.Ldexp(x, -int(h))
	}
	return out
}

func TestEmitHalvesAndConservesMass(t *testing.T) {
	ring := FloatRing{}
	st, err := NewState[float64](ring, []float64{8, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	msg := st.Emit()
	if msg.W != 0.5 || st.Weight() != 0.5 {
		t.Fatalf("weights after emit: msg=%v state=%v", msg.W, st.Weight())
	}
	// The halving is the exponent's: no value moved.
	if st.H != 1 || msg.H != 1 || st.V[0] != 8 || msg.V[1] != 4 {
		t.Fatalf("after emit: state=(%v, %d) msg=(%v, %d), want the values untouched under exponent 1", st.V, st.H, msg.V, msg.H)
	}
	v, mv := shares(st.Values(), st.H), shares(msg.V, msg.H)
	if v[0] != 4 || v[1] != 2 || mv[0] != 4 || mv[1] != 2 {
		t.Fatalf("shares after emit: state=%v msg=%v", v, mv)
	}
}

func TestAbsorbAddsMass(t *testing.T) {
	ring := FloatRing{}
	a, _ := NewState[float64](ring, []float64{1, 2}, 1)
	b, _ := NewState[float64](ring, []float64{3, 4}, 1)
	msg := a.Emit()
	if err := b.Absorb(msg); err != nil {
		t.Fatal(err)
	}
	v := shares(b.Values(), b.H)
	if v[0] != 3.5 || v[1] != 5 || b.Weight() != 1.5 {
		t.Fatalf("after absorb: v=%v w=%v", v, b.Weight())
	}
	// b lagged one halving behind the message: it doubled itself up.
	if b.H != 1 || b.V[0] != 7 {
		t.Fatalf("after absorb: (%v, %d), want ([7 10], 1)", b.V, b.H)
	}
	// And a message lagging behind the state is doubled up instead.
	c, _ := NewState[float64](ring, []float64{16, 0}, 1)
	c.Emit()
	c.Emit()
	c.Emit()
	if err := c.Absorb(msg); err != nil {
		t.Fatal(err)
	}
	if v := shares(c.Values(), c.H); c.H != 3 || v[0] != 2.5 || v[1] != 1 {
		t.Fatalf("lagging message: shares %v under exponent %d, want [2.5 1] under 3", v, c.H)
	}
}

func TestAbsorbValidation(t *testing.T) {
	ring := FloatRing{}
	st, _ := NewState[float64](ring, []float64{1}, 1)
	if err := st.Absorb(nil); err == nil {
		t.Fatal("nil message should error")
	}
	if err := st.Absorb(&Message[float64]{V: []float64{1, 2}, W: 1}); err == nil {
		t.Fatal("dimension mismatch should error")
	}
}

func TestValuesReturnsCopy(t *testing.T) {
	ring := FloatRing{}
	st, _ := NewState[float64](ring, []float64{1}, 1)
	v := st.Values()
	v[0] = 99
	if st.Values()[0] == 99 {
		t.Fatal("Values aliases internal state")
	}
}

func TestStateDoesNotAliasInput(t *testing.T) {
	ring := FloatRing{}
	in := []float64{1, 2}
	st, _ := NewState[float64](ring, in, 1)
	in[0] = 42
	if st.Values()[0] == 42 {
		t.Fatal("state aliases caller slice")
	}
}

func TestPairMassConservation(t *testing.T) {
	// state + emitted message == previous state, exactly, for dyadics.
	ring := FloatRing{}
	st, _ := NewState[float64](ring, []float64{5, 3}, 1)
	msg := st.Emit()
	kept, sent := shares(st.Values(), st.H), shares(msg.V, msg.H)
	if kept[0]+sent[0] != 5 || kept[1]+sent[1] != 3 {
		t.Fatal("mass not conserved across emit")
	}
	if st.Weight()+msg.W != 1 {
		t.Fatal("weight not conserved across emit")
	}
}

func TestModRing(t *testing.T) {
	M := big.NewInt(101) // odd
	r, err := NewModRing(M)
	if err != nil {
		t.Fatal(err)
	}
	a := big.NewInt(100)
	if r.Add(&a, big.NewInt(2)); a.Int64() != 1 {
		t.Fatalf("(100+2) mod 101 = %v", a)
	}
	// Doubling below the modulus is a plain shift; above it, it wraps.
	d := big.NewInt(10)
	if r.Double(&d, 3); d.Int64() != 80 {
		t.Fatalf("10·2^3 = %v", d)
	}
	d.SetInt64(60)
	if r.Double(&d, 2); d.Int64() != 240%101 {
		t.Fatalf("60·2^2 mod 101 = %v, want %d", d, 240%101)
	}
	// AddAll is the left fold of Add.
	acc := big.NewInt(50)
	if r.AddAll(&acc, []*big.Int{big.NewInt(40), big.NewInt(30), big.NewInt(0)}); acc.Int64() != 120%101 {
		t.Fatalf("50+40+30 mod 101 = %v", acc)
	}
	// Set reuses the slot's storage; an empty slot gets its own.
	kept := acc
	if r.Set(&acc, a); acc != kept || acc.Int64() != 1 {
		t.Fatalf("set into a held slot: %v (slot replaced: %v)", acc, acc != kept)
	}
	var c *big.Int
	if r.Set(&c, a); c == nil || c == a || c.Cmp(a) != 0 {
		t.Fatalf("set into an empty slot: %v (aliased: %v)", c, c == a)
	}
}

func TestModRingValidation(t *testing.T) {
	if _, err := NewModRing(nil); err == nil {
		t.Fatal("nil modulus should error")
	}
	if _, err := NewModRing(big.NewInt(100)); err == nil {
		t.Fatal("even modulus should error")
	}
	if _, err := NewModRing(big.NewInt(-3)); err == nil {
		t.Fatal("negative modulus should error")
	}
}

func TestModRingHalveInverseProperty(t *testing.T) {
	M := new(big.Int).Lsh(big.NewInt(1), 61)
	M.Sub(M, big.NewInt(1))
	r, err := NewModRing(M)
	if err != nil {
		t.Fatal(err)
	}
	inv2 := new(big.Int).ModInverse(big.NewInt(2), M)
	f := func(raw int64, k uint8) bool {
		v := new(big.Int).SetInt64(raw)
		v.Mod(v, M)
		// Doubling undoes the ring's halving (multiplication by 2^{-1})
		// step for step.
		h := new(big.Int).Set(v)
		for i := uint8(0); i < k%70; i++ {
			h.Mul(h, inv2).Mod(h, M)
		}
		r.Double(&h, uint(k%70))
		return h.Cmp(v) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestModRingDoubleMatchesBitLoop holds the shift-and-reduce Double to
// the one-bit loop (k shifts, each followed by the reduced-residue
// conditional subtraction), bit for bit, for every k in [0, 1300] over
// the accounted backend's 320-bit ring, on values living in a residue
// arena — whose storage it must not replace.
func TestModRingDoubleMatchesBitLoop(t *testing.T) {
	M := new(big.Int).Lsh(big.NewInt(1), 320)
	M.Sub(M, big.NewInt(1))
	r, err := NewModRing(M)
	if err != nil {
		t.Fatal(err)
	}
	loop := func(v *big.Int, k uint) {
		for ; k > 0; k-- {
			v.Lsh(v, 1)
			if v.Cmp(M) >= 0 {
				v.Sub(v, M)
			}
		}
	}
	arena, err := vecpool.NewResidueArena(1, M.BitLen())
	if err != nil {
		t.Fatal(err)
	}
	a := arena.Int(0)
	storage := &a.Bits()[:1][0]
	rng := rand.New(rand.NewSource(9))
	values := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(M, big.NewInt(1)), new(big.Int).Rsh(M, 1)}
	for k := uint(0); k <= 1300; k++ {
		for _, v := range append(values, new(big.Int).Rand(rng, M)) {
			want := new(big.Int).Set(v)
			loop(want, k)
			a.Set(v)
			r.Double(&a, k)
			if a.Cmp(want) != 0 {
				t.Fatalf("k=%d, v=%s: Double = %s, loop = %s", k, v, a, want)
			}
			if a.Sign() != 0 && &a.Bits()[0] != storage {
				t.Fatalf("k=%d: Double replaced the arena-backed storage", k)
			}
		}
	}
}

func TestFloatAndModRingAgreeOnPreScaledGossip(t *testing.T) {
	// The core protocol guarantee: running the same exchange schedule on
	// floats and on pre-scaled ring residues gives the same result.
	M := new(big.Int).Lsh(big.NewInt(1), 80)
	M.Sub(M, big.NewInt(1))
	ring, err := NewModRing(M)
	if err != nil {
		t.Fatal(err)
	}
	const preScale = 12 // the halving budget: enough for the exchanges below
	encode := func(x int64) *big.Int { return big.NewInt(x) }
	fa, _ := NewState[float64](FloatRing{}, []float64{48}, 1)
	fb, _ := NewState[float64](FloatRing{}, []float64{16}, 1)
	ma, _ := NewState[*big.Int](ring, []*big.Int{encode(48)}, 1)
	mb, _ := NewState[*big.Int](ring, []*big.Int{encode(16)}, 1)

	// A fixed exchange schedule: a->b, b->a, a->b.
	_ = fb.Absorb(fa.Emit())
	_ = mb.Absorb(ma.Emit())
	_ = fa.Absorb(fb.Emit())
	_ = ma.Absorb(mb.Emit())
	_ = fb.Absorb(fa.Emit())
	_ = mb.Absorb(ma.Emit())

	for name, pair := range map[string]struct {
		f *State[float64]
		m *State[*big.Int]
	}{"a": {fa, ma}, "b": {fb, mb}} {
		fEst := shares(pair.f.Values(), pair.f.H)[0] / pair.f.Weight()
		if pair.m.H > preScale {
			t.Fatalf("%s: exponent %d over the budget %d", name, pair.m.H, preScale)
		}
		// Decode as the protocol does: the pre-scaled integer V·2^{T-H},
		// then the 2^T and the weight divided out.
		raw := new(big.Int).Lsh(pair.m.Values()[0], preScale-pair.m.H)
		mEst := float64(raw.Int64()) / math.Ldexp(1, preScale) / pair.m.Weight()
		if fEst != mEst {
			t.Fatalf("%s: float est %v != ring est %v", name, fEst, mEst)
		}
	}
}

func TestUniformPeerExcludesSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		p := uniformPeer(rng, 5, 2)
		if p == 2 || p < 0 || p > 4 {
			t.Fatalf("uniformPeer returned %d", p)
		}
	}
}
