package core

import (
	"strings"
	"testing"

	"chiaroscuro/internal/fixedpoint"
)

// assertDisclosuresIdentical compares everything two runs disclose —
// per-iteration centroids, counts, inertia estimates, final centroids,
// convergence and failure accounting — with exact float comparison.
// Network bytes and operation counts are excluded on purpose: shrinking
// those is the whole point of packing.
func assertDisclosuresIdentical(t *testing.T, a, b *Trace, label string) {
	t.Helper()
	netA, netB := a.NetStats, b.NetStats
	opsA, opsB := a.Ops, b.Ops
	a.NetStats, b.NetStats = netB, netB
	a.Ops, b.Ops = opsB, opsB
	assertTracesBitIdentical(t, a, b, label)
	a.NetStats, b.NetStats = netA, netB
	a.Ops, b.Ops = opsA, opsB
}

// swapPerCoordinate makes r pack one slot per ciphertext, as wide as the
// plaintext: every coordinate then travels, and opens, in a ciphertext
// of its own — the per-coordinate oracle of packing at encryption.
func swapPerCoordinate(t *testing.T, r *runShared) {
	t.Helper()
	bits := r.plainMod.BitLen() - 1
	l, err := fixedpoint.NewSlotLayout(bits, uint(bits-2), 1)
	if err != nil {
		t.Fatal(err)
	}
	swapLayout(r, l)
}

// layoutRun drives data to completion on the cycle engine with the given
// shard workers, per coordinate if asked (swapPerCoordinate).
func layoutRun(t *testing.T, data [][]float64, p Params, workers int, perCoord bool) (*Trace, []*participant, int) {
	t.Helper()
	p.Workers = workers
	r := openTestRun(t, data, p)
	if perCoord {
		swapPerCoordinate(t, r)
	}
	d, err := newCycleDriver(r)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := d.run()
	if err != nil {
		t.Fatal(err)
	}
	return tr, d.participants, r.layout.Slots()
}

// TestPackedPlainBitIdenticalToUnpacked is the packing correctness
// contract on the accounted backend: a packed slot evolves through the
// very same integer additions and doublings as the residue of a
// ciphertext holding its coordinate alone, so the decoded centroids must
// match bit for bit — on the sequential engine and on the sharded engine
// at any worker count — while packing shrinks the wire bytes and the
// sent-copy refreshes.
func TestPackedPlainBitIdenticalToUnpacked(t *testing.T) {
	data := blobs(150, 4, 3)
	p := Params{K: 3, Epsilon: 5, Iterations: 3, Seed: 7}
	seq, _, slots := layoutRun(t, data, p, 1, false)
	if slots < 2 {
		t.Fatalf("the run packs %d coordinates per ciphertext", slots)
	}
	oracle, _, _ := layoutRun(t, data, p, 1, true)
	assertDisclosuresIdentical(t, oracle, seq, "cycles packed-vs-per-coordinate")
	if seq.NetStats.BytesSent >= oracle.NetStats.BytesSent {
		t.Fatalf("packing did not shrink wire bytes: %d vs %d", seq.NetStats.BytesSent, oracle.NetStats.BytesSent)
	}
	if seq.Ops.Refreshes >= oracle.Ops.Refreshes {
		t.Fatalf("packing did not shrink sent-copy refreshes: %d vs %d", seq.Ops.Refreshes, oracle.Ops.Refreshes)
	}
	for _, workers := range []int{1, 4} {
		sp := p
		sp.Workers = workers
		sh, err := Run(data, sp)
		if err != nil {
			t.Fatal(err)
		}
		// Sharded vs cycles: full bit-identity including network and op
		// accounting (the engine determinism contract).
		assertTracesBitIdentical(t, seq, sh, "sharded workers="+itoa(workers))
		if seq.Ops != sh.Ops {
			t.Fatalf("workers=%d: op counts %+v vs %+v", workers, seq.Ops, sh.Ops)
		}
		assertDisclosuresIdentical(t, oracle, sh, "sharded packed-vs-per-coordinate workers="+itoa(workers))
	}
}

// TestPackedPlainBitIdenticalWithInertia repeats the contract with the
// footnote-2 inertia aggregate, which appends an odd coordinate to the
// side vector (sideLen = vecLen+1) and exercises a partial last slot
// group.
func TestPackedPlainBitIdenticalWithInertia(t *testing.T) {
	data := blobs(100, 3, 2)
	p := Params{K: 2, Epsilon: 50, Iterations: 3, Seed: 13, TrackInertia: true}
	packed, _, slots := layoutRun(t, data, p, 1, false)
	if sideLen := p.K*(3+1) + 1; sideLen%slots == 0 {
		t.Fatalf("%d slots fill the %d-coordinate side exactly: no partial group", slots, sideLen)
	}
	oracle, _, _ := layoutRun(t, data, p, 1, true)
	assertDisclosuresIdentical(t, oracle, packed, "inertia packed-vs-per-coordinate")
}

// TestPackedDamgardJurikOpReduction is the acceptance gate of packing
// on the real Damgård–Jurik backend at a 512-bit key: against one
// ciphertext per coordinate it performs at least 5× fewer Encrypt and
// Refresh (one per cipher per gossip emission — what a halving costs now
// that the exponent does the dividing) operations, no more doublings,
// fewer wire bytes — and still discloses the identical centroids
// (threshold decryption is exact, so the packed integers decode to the
// same aggregates). Its counts are pinned exactly: every participant
// encrypts its perturbed contribution once per iteration, sideCiphers
// ciphertexts, and serves n·t·sideCiphers partial decryptions per
// iteration in all.
func TestPackedDamgardJurikOpReduction(t *testing.T) {
	data := blobs(16, 4, 2)
	p := Params{
		K: 2, Epsilon: 100, Iterations: 1, Seed: 5,
		GossipRounds: 6, DecryptThreshold: 3,
		Backend: BackendDamgardJurik, ModulusBits: 512,
	}
	pk, _, slots := layoutRun(t, data, p, 1, false)
	per, _, _ := layoutRun(t, data, p, 1, true)
	assertDisclosuresIdentical(t, per, pk, "dj packed-vs-per-coordinate")

	sideLen := p.K * (4 + 1)
	sideCiphers := int64((sideLen + slots - 1) / slots)
	n, iters := int64(len(data)), int64(p.Iterations)
	if want := n * iters * sideCiphers; pk.Ops.Encrypts != want {
		t.Fatalf("%d encryptions, want n·iterations·sideCiphers = %d", pk.Ops.Encrypts, want)
	}
	if want := n * int64(p.DecryptThreshold) * sideCiphers * iters; pk.Ops.PartialDecrypts != want {
		t.Fatalf("%d partial decryptions, want n·t·sideCiphers·iterations = %d", pk.Ops.PartialDecrypts, want)
	}
	ratio := func(a, b int64) float64 { return float64(a) / float64(b) }
	if r := ratio(per.Ops.Encrypts, pk.Ops.Encrypts); r < 5 {
		t.Fatalf("encrypt reduction %.2fx < 5x (%d vs %d)", r, per.Ops.Encrypts, pk.Ops.Encrypts)
	}
	if r := ratio(per.Ops.Refreshes, pk.Ops.Refreshes); r < 5 {
		t.Fatalf("refresh reduction %.2fx < 5x (%d vs %d)", r, per.Ops.Refreshes, pk.Ops.Refreshes)
	}
	if per.Ops.Halvings != per.Ops.Refreshes || pk.Ops.Halvings != pk.Ops.Refreshes {
		t.Fatalf("eager halvings on a run path: %+v, %+v", per.Ops, pk.Ops)
	}
	if pk.Ops.Doublings > per.Ops.Doublings {
		t.Fatalf("packing raised the doublings: %d vs %d", pk.Ops.Doublings, per.Ops.Doublings)
	}
	if pk.NetStats.BytesSent >= per.NetStats.BytesSent {
		t.Fatalf("packed wire bytes %d not below per-coordinate %d", pk.NetStats.BytesSent, per.NetStats.BytesSent)
	}
}

// TestAccountedMatchesDamgardJurik: the accounted backend stands for the
// key it models, so a run on it performs the operations, and sends the
// bytes, a Damgård–Jurik run at the same parameters does — its ring is
// as wide as the key's plaintext space, so both pack alike — and both
// disclose the same Float64bits.
func TestAccountedMatchesDamgardJurik(t *testing.T) {
	data := blobs(5, 10, 2)
	p := Params{
		K: 2, Epsilon: 100, Iterations: 1, Seed: 3,
		GossipRounds: 8, DecryptThreshold: 4, ModulusBits: 1024,
	}
	plain, err := Run(data, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Backend = BackendDamgardJurik
	dj, err := Run(data, p)
	if err != nil {
		t.Fatal(err)
	}
	assertDisclosuresIdentical(t, plain, dj, "accounted-vs-damgard-jurik")
	a, b := plain.Ops, dj.Ops
	for _, c := range []struct {
		name string
		a, b int64
	}{
		{"encrypts", a.Encrypts, b.Encrypts},
		{"adds", a.Adds, b.Adds},
		{"refreshes", a.Refreshes, b.Refreshes},
		{"doublings", a.Doublings, b.Doublings},
		{"partial decryptions", a.PartialDecrypts, b.PartialDecrypts},
		{"combines", a.Combines, b.Combines},
	} {
		if c.a != c.b {
			t.Errorf("%s: accounted %d, damgard-jurik %d", c.name, c.a, c.b)
		}
	}
	if plain.NetStats.BytesSent != dj.NetStats.BytesSent {
		t.Errorf("wire bytes: accounted %d, damgard-jurik %d", plain.NetStats.BytesSent, dj.NetStats.BytesSent)
	}
}

// TestPackedSlotsEstimate pins the exported packing-factor estimator the
// cost projections use: larger plaintext spaces fit more slots, and an
// infeasible space errors.
func TestPackedSlotsEstimate(t *testing.T) {
	p := Params{K: 5, Epsilon: 10, Iterations: 8, GossipRounds: 20}
	s1023, err := PackedSlots(1023, 1000, 24, p)
	if err != nil {
		t.Fatal(err)
	}
	s2047, err := PackedSlots(2047, 1000, 24, p)
	if err != nil {
		t.Fatal(err)
	}
	if s1023 < 2 {
		t.Fatalf("1024-bit plaintext packs only %d slots", s1023)
	}
	if s2047 <= s1023 {
		t.Fatalf("slots did not grow with the plaintext: %d vs %d", s2047, s1023)
	}
	if _, err := PackedSlots(16, 1000, 24, p); err == nil {
		t.Fatal("a 16-bit plaintext cannot fit a slot")
	}
}

// TestPackedTooSmallModulus pins the failure mode at the edge of the
// budget: a run over a plaintext space that cannot fit one slot fails
// fast at setup with the headroom error, not decoding garbage, exactly
// where PackedSlots says no slot fits; one bit wider, the run packs one
// coordinate per ciphertext and completes.
func TestPackedTooSmallModulus(t *testing.T) {
	data := blobs(20, 3, 2)
	p := Params{K: 2, Epsilon: 10, Iterations: 2, Seed: 1, GossipRounds: 15}
	edge := 0
	for bits := 40; bits <= 80; bits++ {
		p.ModulusBits = bits
		slots, slotsErr := PackedSlots(bits-1, len(data), 3, p)
		_, runErr := Run(data, p)
		if (slotsErr == nil) != (runErr == nil) {
			t.Fatalf("%d-bit ring: PackedSlots error %v, run error %v", bits, slotsErr, runErr)
		}
		if runErr != nil {
			if !strings.Contains(runErr.Error(), "plaintext space too small") {
				t.Fatalf("%d-bit ring: %v, want the headroom error", bits, runErr)
			}
			continue
		}
		if edge == 0 {
			edge = bits
			if slots != 1 {
				t.Fatalf("narrowest feasible ring (%d bits) packs %d slots, want 1", bits, slots)
			}
		}
	}
	if edge <= 40 || edge >= 80 {
		t.Fatalf("feasibility edge at %d bits: the scan no longer straddles it", edge)
	}
}
