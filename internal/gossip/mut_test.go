package gossip

import (
	"math/big"
	"math/rand"
	"testing"

	"chiaroscuro/internal/vecpool"
)

// testModulus is an odd 320-bit modulus matching the accounted backend's
// plaintext ring width.
func testModulus() *big.Int {
	m := new(big.Int).Lsh(big.NewInt(1), 320)
	return m.Sub(m, big.NewInt(1))
}

// mutStates builds two identical two-node states over ModRing — one
// immutable, one in-place over arena residues — from the same residue
// seeds.
func mutStates(t *testing.T, ring *ModRing, seeds []int64) (plain, mut *State[*big.Int]) {
	t.Helper()
	vals := make([]*big.Int, len(seeds))
	for i, s := range seeds {
		vals[i] = new(big.Int).Mod(big.NewInt(s), ring.M)
	}
	plain, err := NewState[*big.Int](ring, vals, 1)
	if err != nil {
		t.Fatal(err)
	}
	arena, err := vecpool.NewResidueArena(len(seeds), ring.M.BitLen())
	if err != nil {
		t.Fatal(err)
	}
	mvals := make([]*big.Int, len(seeds))
	for i := range seeds {
		mvals[i] = arena.Int(i)
		mvals[i].Set(vals[i])
	}
	mut, err = NewState[*big.Int](ring, mvals, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !mut.SetMutable() {
		t.Fatal("ModRing must support the in-place path")
	}
	return plain, mut
}

// TestMutStateBitIdentical drives an immutable and an in-place state
// through the same randomized emit/absorb/absorb-batch schedule and
// requires identical values and weights at every step — the contract
// that lets internal/core flip the hot path on without disturbing any
// golden trajectory.
func TestMutStateBitIdentical(t *testing.T) {
	ring, err := NewModRing(testModulus())
	if err != nil {
		t.Fatal(err)
	}
	plain, mut := mutStates(t, ring, []int64{123456789, -987654321, 42})
	rng := rand.New(rand.NewSource(7))

	// Prepared reusable buffer for the mutable emitter; the immutable
	// side emits fresh messages.
	arena, err := vecpool.NewResidueArena(len(mut.V), ring.M.BitLen())
	if err != nil {
		t.Fatal(err)
	}
	dst := &Message[*big.Int]{V: make([]*big.Int, len(mut.V))}
	for i := range dst.V {
		dst.V[i] = arena.Int(i)
	}

	check := func(step int) {
		t.Helper()
		if plain.Weight() != mut.Weight() || plain.H != mut.H {
			t.Fatalf("step %d: (weight, exponent) (%v, %d) != (%v, %d)", step, plain.Weight(), plain.H, mut.Weight(), mut.H)
		}
		for i := range plain.V {
			if plain.V[i].Cmp(mut.V[i]) != 0 {
				t.Fatalf("step %d coord %d: %v != %v", step, i, plain.V[i], mut.V[i])
			}
		}
	}
	for step := 0; step < 200; step++ {
		switch rng.Intn(3) {
		case 0: // emit
			mp := plain.Emit()
			mm := mut.EmitInto(dst)
			for i := range mp.V {
				if mp.V[i].Cmp(mm.V[i]) != 0 {
					t.Fatalf("step %d: emitted coord %d differs", step, i)
				}
			}
			if mp.W != mm.W || mp.H != mm.H {
				t.Fatalf("step %d: emitted weight or exponent differs", step)
			}
		case 1: // absorb one message
			m := randomMessage(rng, ring, len(plain.V))
			if err := plain.Absorb(m); err != nil {
				t.Fatal(err)
			}
			if err := mut.Absorb(m); err != nil {
				t.Fatal(err)
			}
		case 2: // absorb a batch
			batch := make([]*Message[*big.Int], 2+rng.Intn(4))
			for j := range batch {
				batch[j] = randomMessage(rng, ring, len(plain.V))
			}
			if err := plain.AbsorbAll(batch); err != nil {
				t.Fatal(err)
			}
			if err := mut.AbsorbAll(batch); err != nil {
				t.Fatal(err)
			}
		}
		check(step)
	}
}

func randomMessage(rng *rand.Rand, ring *ModRing, n int) *Message[*big.Int] {
	v := make([]*big.Int, n)
	for i := range v {
		v[i] = new(big.Int).Rand(rng, ring.M)
	}
	// Exponents on both sides of any state the schedules below reach.
	return &Message[*big.Int]{V: v, W: rng.Float64(), H: uint(rng.Intn(90))}
}

// TestMutStateEmitNotAliased pins the anti-aliasing property of the
// in-place emit: the emitted values equal the state's but live in the
// destination's own storage, so later state mutations cannot corrupt an
// in-flight message.
func TestMutStateEmitNotAliased(t *testing.T) {
	ring, err := NewModRing(testModulus())
	if err != nil {
		t.Fatal(err)
	}
	_, mut := mutStates(t, ring, []int64{1 << 40})
	arena, err := vecpool.NewResidueArena(1, ring.M.BitLen())
	if err != nil {
		t.Fatal(err)
	}
	dst := &Message[*big.Int]{V: []*big.Int{arena.Int(0)}}
	m := mut.EmitInto(dst)
	want := new(big.Int).Set(m.V[0])
	mut.Absorb(&Message[*big.Int]{V: []*big.Int{big.NewInt(99)}, W: 0.1, H: 1})
	if m.V[0].Cmp(want) != 0 {
		t.Fatal("state mutation leaked into the emitted message")
	}
	if mut.V[0].Cmp(want) == 0 {
		t.Fatal("absorb did not mutate the state")
	}
}

// TestMutStateEmitUnpreparedNotAliased covers the fallthrough the
// prepared-buffer fast path skips: Emit (and EmitInto with a wrong-
// length destination) on a mutable state must also hand out values the
// state's later in-place mutations cannot reach — even over a ring
// whose Clone shares (the cipher rings; ModRing's deep Clone would mask
// the bug, so this pins the SetInPlace-copy-back behaviour directly).
func TestMutStateEmitUnpreparedNotAliased(t *testing.T) {
	ring, err := NewModRing(testModulus())
	if err != nil {
		t.Fatal(err)
	}
	_, mut := mutStates(t, ring, []int64{1 << 40, 12345})
	m := mut.Emit() // nil destination: the unprepared path
	want0 := new(big.Int).Set(m.V[0])
	if m.V[0] == mut.V[0] || m.V[1] == mut.V[1] {
		t.Fatal("unprepared emit aliased the message with the state")
	}
	mut.Absorb(&Message[*big.Int]{V: []*big.Int{big.NewInt(3), big.NewInt(4)}, W: 0.1})
	if m.V[0].Cmp(want0) != 0 {
		t.Fatal("in-place absorb leaked into a previously emitted message")
	}
}

// TestMutStateZeroAllocCycle is the package-level allocation contract:
// a warmed emit/absorb cycle on an in-place state allocates nothing. (A
// message lagging behind the state is doubled into a fresh value, one
// allocation per coordinate; a state lagging behind doubles in place.)
func TestMutStateZeroAllocCycle(t *testing.T) {
	ring, err := NewModRing(testModulus())
	if err != nil {
		t.Fatal(err)
	}
	_, mut := mutStates(t, ring, []int64{123456789, -42, 7, 1 << 50})
	arena, err := vecpool.NewResidueArena(len(mut.V), ring.M.BitLen())
	if err != nil {
		t.Fatal(err)
	}
	dst := &Message[*big.Int]{V: make([]*big.Int, len(mut.V))}
	for i := range dst.V {
		dst.V[i] = arena.Int(i)
	}
	// A self-absorbing loop: emit into the prepared buffer, absorb a
	// batch arriving at the state's own exponent — the synchronized round
	// (batch of 2 exercises the column scratch) — forever touching only
	// preallocated storage.
	inArena, err := vecpool.NewResidueArena(len(mut.V), ring.M.BitLen())
	if err != nil {
		t.Fatal(err)
	}
	in := &Message[*big.Int]{V: make([]*big.Int, len(mut.V)), W: 0.25}
	for i := range in.V {
		in.V[i] = inArena.Int(i)
		in.V[i].SetInt64(int64(i + 1))
	}
	batch := []*Message[*big.Int]{in, in}
	cycle := func() {
		mut.EmitInto(dst)
		in.H = mut.H
		if err := mut.AbsorbAll(batch); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm the column scratch and arena limb slabs
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("in-place gossip cycle allocates %.1f objects, want 0", allocs)
	}
}
