package gossip

import (
	"math/big"
	"math/rand"
	"testing"

	"chiaroscuro/internal/vecpool"
)

// arenaVector returns residues of xs modulo the ring's modulus held in a
// fresh vecpool arena — the accounted backend's fixed-capacity storage.
func arenaVector(t *testing.T, ring *ModRing, xs ...int64) []*big.Int {
	t.Helper()
	a, err := vecpool.NewResidueArena(len(xs), ring.M.BitLen())
	if err != nil {
		t.Fatal(err)
	}
	v := make([]*big.Int, len(xs))
	for i, x := range xs {
		v[i] = a.Int(i).Mod(big.NewInt(x), ring.M)
	}
	return v
}

// mutStates builds two identical states over ModRing from the same
// residue seeds: one over ordinary big.Ints, one over arena residues.
func mutStates(t *testing.T, ring *ModRing, seeds []int64) (heap, arena *State[*big.Int]) {
	t.Helper()
	vals := make([]*big.Int, len(seeds))
	for i, s := range seeds {
		vals[i] = new(big.Int).Mod(big.NewInt(s), ring.M)
	}
	heap, err := NewState[*big.Int](ring, vals, 1)
	if err != nil {
		t.Fatal(err)
	}
	arena, err = NewState[*big.Int](ring, arenaVector(t, ring, seeds...), 1)
	if err != nil {
		t.Fatal(err)
	}
	return heap, arena
}

// TestMutStateBitIdentical drives a heap-backed state emitting into fresh
// messages and an arena-backed state emitting into one prepared arena
// buffer — the two storage choices internal/core picks between — through
// the same randomized emit/absorb/absorb-batch schedule, and requires
// identical values and weights at every step: where an emission is stored
// never changes the arithmetic.
func TestMutStateBitIdentical(t *testing.T) {
	ring, err := NewModRing(testModulus())
	if err != nil {
		t.Fatal(err)
	}
	heap, arena := mutStates(t, ring, []int64{123456789, -987654321, 42})
	rng := rand.New(rand.NewSource(7))
	dst := &Message[*big.Int]{V: arenaVector(t, ring, 0, 0, 0)}

	check := func(step int) {
		t.Helper()
		if heap.Weight() != arena.Weight() || heap.H != arena.H {
			t.Fatalf("step %d: (weight, exponent) (%v, %d) != (%v, %d)", step, heap.Weight(), heap.H, arena.Weight(), arena.H)
		}
		for i := range heap.V {
			if heap.V[i].Cmp(arena.V[i]) != 0 {
				t.Fatalf("step %d coord %d: %v != %v", step, i, heap.V[i], arena.V[i])
			}
		}
	}
	for step := 0; step < 200; step++ {
		switch rng.Intn(3) {
		case 0: // emit
			mh := heap.Emit()
			ma := arena.EmitInto(dst)
			for i := range mh.V {
				if mh.V[i].Cmp(ma.V[i]) != 0 {
					t.Fatalf("step %d: emitted coord %d differs", step, i)
				}
			}
			if mh.W != ma.W || mh.H != ma.H {
				t.Fatalf("step %d: emitted weight or exponent differs", step)
			}
		case 1: // absorb one message
			m := randomMessage(rng, ring, len(heap.V))
			if err := heap.Absorb(m); err != nil {
				t.Fatal(err)
			}
			if err := arena.Absorb(m); err != nil {
				t.Fatal(err)
			}
		case 2: // absorb a batch
			batch := make([]*Message[*big.Int], 2+rng.Intn(4))
			for j := range batch {
				batch[j] = randomMessage(rng, ring, len(heap.V))
			}
			if _, err := heap.AbsorbAll(batch, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := arena.AbsorbAll(batch, nil); err != nil {
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
	// Exponents on both sides of any state the schedules above reach.
	return &Message[*big.Int]{V: v, W: rng.Float64(), H: uint(rng.Intn(90))}
}

// TestMutStateEmitNotAliased pins the anti-aliasing property of an emit
// into a prepared message: the emitted values equal the state's but live
// in the slots the destination already held, so later in-place state
// mutations cannot corrupt an in-flight message.
func TestMutStateEmitNotAliased(t *testing.T) {
	ring, err := NewModRing(testModulus())
	if err != nil {
		t.Fatal(err)
	}
	_, st := mutStates(t, ring, []int64{1 << 40})
	dst := &Message[*big.Int]{V: arenaVector(t, ring, 0)}
	slot := dst.V[0]
	m := st.EmitInto(dst)
	if m.V[0] != slot {
		t.Fatal("EmitInto replaced a slot that already held storage")
	}
	want := new(big.Int).Set(m.V[0])
	if err := st.Absorb(&Message[*big.Int]{V: []*big.Int{big.NewInt(99)}, W: 0.1, H: 1}); err != nil {
		t.Fatal(err)
	}
	if m.V[0].Cmp(want) != 0 {
		t.Fatal("state mutation leaked into the emitted message")
	}
	if st.V[0].Cmp(want) == 0 {
		t.Fatal("absorb did not mutate the state")
	}
}

// TestMutStateEmitUnpreparedNotAliased covers the path without a prepared
// buffer: Emit (a nil destination) must hand out values in fresh storage
// that the state's later in-place mutations cannot reach.
func TestMutStateEmitUnpreparedNotAliased(t *testing.T) {
	ring, err := NewModRing(testModulus())
	if err != nil {
		t.Fatal(err)
	}
	_, st := mutStates(t, ring, []int64{1 << 40, 12345})
	m := st.Emit()
	want0 := new(big.Int).Set(m.V[0])
	if m.V[0] == st.V[0] || m.V[1] == st.V[1] {
		t.Fatal("unprepared emit aliased the message with the state")
	}
	if err := st.Absorb(&Message[*big.Int]{V: []*big.Int{big.NewInt(3), big.NewInt(4)}, W: 0.1}); err != nil {
		t.Fatal(err)
	}
	if m.V[0].Cmp(want0) != 0 {
		t.Fatal("in-place absorb leaked into a previously emitted message")
	}
}

// TestMutStateZeroAllocCycle is the package-level allocation contract: a
// warmed emit/absorb cycle over arena residues and a reused message
// allocates nothing. (A message lagging behind the state is doubled into
// a fresh value, one allocation per coordinate; a state lagging behind
// doubles in place.)
func TestMutStateZeroAllocCycle(t *testing.T) {
	ring, err := NewModRing(testModulus())
	if err != nil {
		t.Fatal(err)
	}
	_, st := mutStates(t, ring, []int64{123456789, -42, 7, 1 << 50})
	dst := &Message[*big.Int]{V: arenaVector(t, ring, 0, 0, 0, 0)}
	// A self-absorbing loop: emit into the prepared buffer, absorb a batch
	// arriving at the state's own exponent — the synchronized round (a
	// batch of 2 exercises the column scratch) — forever touching only
	// preallocated storage.
	in := &Message[*big.Int]{V: arenaVector(t, ring, 1, 2, 3, 4), W: 0.25}
	batch := []*Message[*big.Int]{in, in}
	var col []*big.Int
	cycle := func() {
		st.EmitInto(dst)
		in.H = st.H
		var err error
		if col, err = st.AbsorbAll(batch, col); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm the column and arena limb slabs
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("in-place gossip cycle allocates %.1f objects, want 0", allocs)
	}
}
