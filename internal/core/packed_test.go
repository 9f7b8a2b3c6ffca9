package core

import (
	"errors"
	"testing"
)

// assertDisclosuresIdentical compares everything a packed and an unpacked
// run disclose — per-iteration centroids, counts, inertia estimates,
// final centroids, convergence and failure accounting — with exact
// float comparison. Network bytes and operation counts are excluded on
// purpose: shrinking those is the whole point of packing.
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

// TestPackedPlainBitIdenticalToUnpacked is the packing correctness
// contract on the accounted backend: a packed slot evolves through the
// very same integer additions and exact halvings as its unpacked
// counterpart residue, and the bias bookkeeping is exact, so the decoded
// centroids must match bit for bit — on the sequential engine and, with
// the full determinism contract, on the sharded engine at any worker
// count.
func TestPackedPlainBitIdenticalToUnpacked(t *testing.T) {
	data := blobs(150, 4, 3)
	base := Params{K: 3, Epsilon: 5, Iterations: 3, Seed: 7}
	packed := base
	packed.Packed = true

	seq, err := Run(data, base)
	if err != nil {
		t.Fatal(err)
	}
	seqPacked, err := Run(data, packed)
	if err != nil {
		t.Fatal(err)
	}
	assertDisclosuresIdentical(t, seq, seqPacked, "cycles packed-vs-unpacked")
	if seqPacked.NetStats.BytesSent >= seq.NetStats.BytesSent {
		t.Fatalf("packing did not shrink wire bytes: %d vs %d",
			seqPacked.NetStats.BytesSent, seq.NetStats.BytesSent)
	}
	if seqPacked.Ops.Refreshes >= seq.Ops.Refreshes {
		t.Fatalf("packing did not shrink sent-copy refreshes: %d vs %d",
			seqPacked.Ops.Refreshes, seq.Ops.Refreshes)
	}

	for _, workers := range []int{1, 4} {
		p := packed
		p.Workers = workers
		sh, err := RunSharded(data, p)
		if err != nil {
			t.Fatal(err)
		}
		// Packed sharded vs packed cycles: full bit-identity including
		// network and op accounting (the engine determinism contract).
		assertTracesBitIdentical(t, seqPacked, sh, "sharded packed workers="+itoa(workers))
		if seqPacked.Ops != sh.Ops {
			t.Fatalf("workers=%d: op counts %+v vs %+v", workers, seqPacked.Ops, sh.Ops)
		}
		// Packed sharded vs unpacked cycles: disclosure bit-identity.
		assertDisclosuresIdentical(t, seq, sh, "sharded packed-vs-unpacked workers="+itoa(workers))
	}
}

// TestPackedPlainBitIdenticalWithInertia repeats the contract with the
// footnote-2 inertia aggregate, which appends an odd coordinate to the
// side vector (sideLen = vecLen+1) and exercises the partial last slot
// group.
func TestPackedPlainBitIdenticalWithInertia(t *testing.T) {
	data := blobs(100, 3, 2)
	base := Params{K: 2, Epsilon: 50, Iterations: 3, Seed: 13, TrackInertia: true}
	packed := base
	packed.Packed = true
	seq, err := Run(data, base)
	if err != nil {
		t.Fatal(err)
	}
	seqPacked, err := Run(data, packed)
	if err != nil {
		t.Fatal(err)
	}
	assertDisclosuresIdentical(t, seq, seqPacked, "inertia packed-vs-unpacked")
}

// TestPackedDamgardJurikOpReduction is the acceptance gate of slot
// packing: on the real Damgård–Jurik backend at a 512-bit key, packing
// must perform at least 5× fewer Encrypt and Refresh (one per cipher per
// gossip emission — what a halving costs now that the exponent does the
// dividing) operations than the unpacked run, no more doublings, fewer
// wire bytes — and still disclose the identical centroids (threshold
// decryption is exact, so the packed integers decode to the same
// aggregates). Both runs open packed ciphertexts, so their partial
// decryptions are pinned exactly: n·t per opened ciphertext per
// iteration, ⌈sideLen/opening slots⌉ of them unpacked and sideCiphers
// packed.
func TestPackedDamgardJurikOpReduction(t *testing.T) {
	data := blobs(16, 4, 2)
	base := Params{
		K: 2, Epsilon: 100, Iterations: 1, Seed: 5,
		GossipRounds: 6, DecryptThreshold: 3,
		Backend: BackendDamgardJurik, ModulusBits: 512,
	}
	packed := base
	packed.Packed = true

	plain, err := Run(data, base)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := Run(data, packed)
	if err != nil {
		t.Fatal(err)
	}
	assertDisclosuresIdentical(t, plain, pk, "dj packed-vs-unpacked")

	ratio := func(a, b int64) float64 { return float64(a) / float64(b) }
	if r := ratio(plain.Ops.Encrypts, pk.Ops.Encrypts); r < 5 {
		t.Fatalf("encrypt reduction %.2fx < 5x (%d vs %d)", r, plain.Ops.Encrypts, pk.Ops.Encrypts)
	}
	if r := ratio(plain.Ops.Refreshes, pk.Ops.Refreshes); r < 5 {
		t.Fatalf("refresh reduction %.2fx < 5x (%d vs %d)", r, plain.Ops.Refreshes, pk.Ops.Refreshes)
	}
	if plain.Ops.Halvings != plain.Ops.Refreshes || pk.Ops.Halvings != pk.Ops.Refreshes {
		t.Fatalf("eager halvings on a run path: %+v, %+v", plain.Ops, pk.Ops)
	}
	if pk.Ops.Doublings > plain.Ops.Doublings {
		t.Fatalf("packing raised the doublings: %d vs %d", pk.Ops.Doublings, plain.Ops.Doublings)
	}
	for _, tc := range []struct {
		name   string
		params Params
		tr     *Trace
	}{{"unpacked", base, plain}, {"packed", packed, pk}} {
		rs, err := prepareRun(data, tc.params)
		if err != nil {
			t.Fatal(err)
		}
		r := rs.shared
		opened := r.sideCiphers
		if r.opening != nil {
			opened = (r.sideLen + r.opening.Slots() - 1) / r.opening.Slots()
		}
		rs.close()
		want := int64(len(data) * base.DecryptThreshold * opened * base.Iterations)
		if tc.tr.Ops.PartialDecrypts != want {
			t.Fatalf("%s: %d partial decryptions, want n·t·%d·iterations = %d", tc.name, tc.tr.Ops.PartialDecrypts, opened, want)
		}
	}
	if pk.NetStats.BytesSent >= plain.NetStats.BytesSent {
		t.Fatalf("packed wire bytes %d not below unpacked %d", pk.NetStats.BytesSent, plain.NetStats.BytesSent)
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

// TestPackedTooSmallModulus pins the failure mode: a packed run over a
// plaintext space that cannot fit one slot must fail fast at setup with
// ErrPackingInfeasible, not decode garbage. The modulus sits in the
// window between the two budgets — wide enough for the unpacked
// headroom check (proven by the unpacked run succeeding) but a few bits
// short of one slot (sign bias + aggregation guard) — so the error must
// come from packedLayout itself.
func TestPackedTooSmallModulus(t *testing.T) {
	data := blobs(20, 3, 2)
	base := Params{
		K: 2, Epsilon: 10, Iterations: 2, Seed: 1,
		GossipRounds: 15, ModulusBits: 64, // 64-bit plain ring
	}
	if _, err := Run(data, base); err != nil {
		t.Fatalf("unpacked run must clear the headroom check: %v", err)
	}
	packed := base
	packed.Packed = true
	_, err := Run(data, packed)
	if !errors.Is(err, ErrPackingInfeasible) {
		t.Fatalf("packed run over a 64-bit ring must fail with ErrPackingInfeasible, got %v", err)
	}
}
