package gossip

import (
	"math/big"
	"math/rand"
	"testing"
)

// TestAbsorbAllMatchesSequentialFloat pins the batched-exchange
// contract on the non-associative float ring: AbsorbAll must reproduce
// one-by-one absorption bit for bit, including the weight fold order.
func TestAbsorbAllMatchesSequentialFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := func() []float64 {
		v := make([]float64, 5)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	seq, err := NewState[float64](FloatRing{}, vals(), 1)
	if err != nil {
		t.Fatal(err)
	}
	bat, err := NewState[float64](FloatRing{}, append([]float64(nil), seq.V...), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Senders at different depths of their own gossip: the batch carries
	// exponents on both sides of the receiver's.
	seq.Emit()
	bat.Emit()
	var ms []*Message[float64]
	for k := 0; k < 7; k++ {
		other, _ := NewState[float64](FloatRing{}, vals(), 1)
		for e := 0; e < k%4; e++ {
			other.Emit()
		}
		ms = append(ms, other.Emit())
	}
	for _, m := range ms {
		if err := seq.Absorb(m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bat.AbsorbAll(ms, nil); err != nil {
		t.Fatal(err)
	}
	if seq.W != bat.W || seq.H != bat.H {
		t.Fatalf("weights/exponents diverge: (%v, %d) vs (%v, %d)", seq.W, seq.H, bat.W, bat.H)
	}
	for i := range seq.V {
		if seq.V[i] != bat.V[i] {
			t.Fatalf("coordinate %d diverges: %v vs %v", i, seq.V[i], bat.V[i])
		}
	}
}

// TestAbsorbAllMatchesSequentialMod pins the same contract on the
// modular ring (the accounted backend's arithmetic), where AddAll uses
// the single-accumulator conditional-subtraction fold.
func TestAbsorbAllMatchesSequentialMod(t *testing.T) {
	m := new(big.Int).Lsh(big.NewInt(1), 61)
	m.Sub(m, big.NewInt(1))
	ring, err := NewModRing(m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	vals := func() []*big.Int {
		v := make([]*big.Int, 4)
		for i := range v {
			v[i] = new(big.Int).Rand(rng, m)
		}
		return v
	}
	start := vals()
	seq, err := NewState[*big.Int](ring, start, 1)
	if err != nil {
		t.Fatal(err)
	}
	bat, err := NewState[*big.Int](ring, seq.Values(), 1) // states own their values
	if err != nil {
		t.Fatal(err)
	}
	seq.Emit()
	seq.Emit()
	bat.Emit()
	bat.Emit()
	var ms []*Message[*big.Int]
	for k := 0; k < 6; k++ {
		other, _ := NewState[*big.Int](ring, vals(), 1)
		for e := 0; e < k%4; e++ {
			other.Emit()
		}
		ms = append(ms, other.Emit())
	}
	for _, msg := range ms {
		if err := seq.Absorb(msg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bat.AbsorbAll(ms, nil); err != nil {
		t.Fatal(err)
	}
	if seq.W != bat.W || seq.H != bat.H {
		t.Fatalf("weights/exponents diverge: (%v, %d) vs (%v, %d)", seq.W, seq.H, bat.W, bat.H)
	}
	for i := range seq.V {
		if seq.V[i].Cmp(bat.V[i]) != 0 {
			t.Fatalf("coordinate %d diverges: %v vs %v", i, seq.V[i], bat.V[i])
		}
	}
}

// TestAbsorbAllValidatesBeforeMutating checks the all-or-nothing
// property: a malformed message anywhere in the batch must leave the
// state untouched.
func TestAbsorbAllValidatesBeforeMutating(t *testing.T) {
	st, err := NewState[float64](FloatRing{}, []float64{1, 2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	good := &Message[float64]{V: []float64{1, 1, 1}, W: 0.5}
	bad := &Message[float64]{V: []float64{1}, W: 0.5}
	if _, err := st.AbsorbAll([]*Message[float64]{good, bad}, nil); err == nil {
		t.Fatal("dimension mismatch not rejected")
	}
	if st.V[0] != 1 || st.W != 1 {
		t.Fatalf("state mutated by rejected batch: %+v", st)
	}
	if _, err := st.AbsorbAll([]*Message[float64]{good, nil}, nil); err == nil {
		t.Fatal("nil message not rejected")
	}
	if _, err := st.AbsorbAll(nil, nil); err != nil {
		t.Fatalf("empty batch should be a no-op, got %v", err)
	}
}

// TestEmitIntoReusesBuffer checks buffer recycling and that EmitInto is
// arithmetically the same as Emit.
func TestEmitIntoReusesBuffer(t *testing.T) {
	a, _ := NewState[float64](FloatRing{}, []float64{8, 4}, 1)
	b, _ := NewState[float64](FloatRing{}, []float64{8, 4}, 1)
	buf := &Message[float64]{V: make([]float64, 0, 2)}
	want := a.Emit()
	got := b.EmitInto(buf)
	if got != buf {
		t.Fatal("EmitInto did not return the provided buffer")
	}
	if got.W != want.W || got.H != want.H || got.V[0] != want.V[0] || got.V[1] != want.V[1] {
		t.Fatalf("EmitInto diverges from Emit: %+v vs %+v", got, want)
	}
	// Second emission into the same buffer must not allocate a new V.
	prev := &got.V[0]
	got2 := b.EmitInto(buf)
	if &got2.V[0] != prev {
		t.Fatal("EmitInto reallocated a reusable buffer")
	}
	if got2.V[0] != 8 || got2.H != 2 { // 8 -> emitted 4, kept 4 -> emitted 2 = 8·2^-2
		t.Fatalf("second emission (%v, %d), want (8, 2)", got2.V[0], got2.H)
	}
}

// TestAbsorbAllReturnsTheColumnEmptied: the column a caller lends
// AbsorbAll comes back empty with its value references cleared — so it
// pins no absorbed value — grown when it was shorter than the batch and
// in the same storage when it was not.
func TestAbsorbAllReturnsTheColumnEmptied(t *testing.T) {
	ring, err := NewModRing(big.NewInt(1_000_003))
	if err != nil {
		t.Fatal(err)
	}
	st, _ := NewState[*big.Int](ring, []*big.Int{big.NewInt(1), big.NewInt(2)}, 1)
	batch := func(k int) []*Message[*big.Int] {
		ms := make([]*Message[*big.Int], k)
		for i := range ms {
			other, _ := NewState[*big.Int](ring, []*big.Int{big.NewInt(int64(i)), big.NewInt(7)}, 1)
			ms[i] = other.Emit()
		}
		return ms
	}
	emptied := func(col []*big.Int) bool {
		for _, v := range col[:cap(col)] {
			if v != nil {
				return false
			}
		}
		return len(col) == 0
	}
	col, err := st.AbsorbAll(batch(3), make([]*big.Int, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if cap(col) < 3 || !emptied(col) {
		t.Fatalf("column of cap %d after a batch of 3, emptied %v", cap(col), emptied(col))
	}
	at := &col[:1][0]
	if col, err = st.AbsorbAll(batch(2), col); err != nil {
		t.Fatal(err)
	}
	if &col[:1][0] != at || !emptied(col) {
		t.Fatal("a column long enough for the batch was not reused, or came back holding values")
	}
}
