package costmodel

import (
	"testing"
	"time"
)

func measureSmall(t *testing.T) *CryptoProfile {
	t.Helper()
	p, err := MeasureProfile(128, 1, 5, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMeasureProfilePopulatesEverything(t *testing.T) {
	p := measureSmall(t)
	if p.KeyBits != 128 || p.Degree != 1 {
		t.Fatalf("profile identity: %+v", p)
	}
	for name, d := range map[string]time.Duration{
		"Encrypt": p.Encrypt, "Decrypt": p.Decrypt, "Add": p.Add,
		"ScalarMul": p.ScalarMul, "Square": p.Square, "PartialDecrypt": p.PartialDecrypt, "Combine": p.Combine,
	} {
		if d <= 0 {
			t.Errorf("%s duration = %v, want > 0", name, d)
		}
	}
	if p.CiphertextBytes != 32 {
		t.Errorf("ciphertext bytes = %d, want 32 for 128-bit s=1", p.CiphertextBytes)
	}
}

func TestMeasureProfilePopulatesFastPaths(t *testing.T) {
	p := measureSmall(t)
	for name, d := range map[string]time.Duration{
		"Rerandomize": p.Rerandomize, "FastEncrypt": p.FastEncrypt,
		"FastDecrypt": p.FastDecrypt, "FastPartialDecrypt": p.FastPartialDecrypt,
		"FastCombine": p.FastCombine, "FastRerandomize": p.FastRerandomize,
	} {
		if d <= 0 {
			t.Errorf("%s duration = %v, want > 0", name, d)
		}
	}
}

func TestProjectReportsBothNaiveAndFastCosts(t *testing.T) {
	p := measureSmall(t)
	r, err := Project(p, baseWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if r.CPUTimeFast <= 0 || r.DecryptLatencyFast <= 0 {
		t.Fatalf("fast projections missing: cpu %v latency %v", r.CPUTimeFast, r.DecryptLatencyFast)
	}
	// A profile without fast measurements degrades to the naive numbers.
	naiveOnly := *p
	naiveOnly.FastEncrypt, naiveOnly.FastDecrypt = 0, 0
	naiveOnly.FastPartialDecrypt, naiveOnly.FastCombine, naiveOnly.FastRerandomize = 0, 0, 0
	r2, err := Project(&naiveOnly, baseWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if r2.CPUTimeFast != r2.CPUTime || r2.DecryptLatencyFast != r2.DecryptLatency {
		t.Fatal("fast projection should fall back to naive timings when unmeasured")
	}
}

func TestMeasureProfileUnknownFixture(t *testing.T) {
	if _, err := MeasureProfile(333, 1, 3, 2, 1); err == nil {
		t.Fatal("unknown fixture size should error")
	}
}

func baseWorkload() Workload {
	return Workload{
		Participants:     1000,
		K:                5,
		Dim:              24,
		Iterations:       8,
		GossipRounds:     20,
		DecryptThreshold: 10,
	}
}

// TestProjectOperationCounts pins the projection at 20 coordinates to a
// ciphertext: 125 coordinates a side travel, and open, as 7.
func TestProjectOperationCounts(t *testing.T) {
	p := measureSmall(t)
	w := baseWorkload()
	w.Slots = 20
	r, err := Project(p, w)
	if err != nil {
		t.Fatal(err)
	}
	const opened = 7 // ⌈125/20⌉
	if w.VectorLen() != 2*opened || w.SideCiphers() != opened {
		t.Fatalf("VectorLen = %d, SideCiphers = %d, want %d and %d", w.VectorLen(), w.SideCiphers(), 2*opened, opened)
	}
	if r.EncryptOps != w.Iterations*2*opened {
		t.Fatalf("encrypts = %d", r.EncryptOps)
	}
	if r.RerandomizeOps != w.Iterations*w.GossipRounds*2*opened {
		t.Fatalf("rerandomize ops = %d, want one per ciphertext per round", r.RerandomizeOps)
	}
	// Gossip merges, and one noise-to-mean addition per group.
	if r.AddOps != w.Iterations*(w.GossipRounds*2*opened+opened) {
		t.Fatalf("add ops = %d", r.AddOps)
	}
	if r.PartialDecryptOps != w.Iterations*w.DecryptThreshold*opened {
		t.Fatalf("partial decrypts = %d", r.PartialDecryptOps)
	}
	if r.CombineOps != w.Iterations*opened {
		t.Fatalf("combines = %d", r.CombineOps)
	}
	if want := int64(2*w.Iterations*w.DecryptThreshold) * int64(opened*p.CiphertextBytes+8); r.DecryptBytes != want {
		t.Fatalf("decrypt bytes = %d, want %d", r.DecryptBytes, want)
	}
	// One ciphertext per coordinate is Slots 0 or 1.
	meanLen := w.K * (w.Dim + 1) // 125
	for _, slots := range []int{0, 1} {
		uw := w
		uw.Slots = slots
		u, err := Project(p, uw)
		if err != nil {
			t.Fatal(err)
		}
		if u.PartialDecryptOps != w.Iterations*w.DecryptThreshold*meanLen ||
			u.AddOps != w.Iterations*(w.GossipRounds*2*meanLen+meanLen) {
			t.Fatalf("Slots=%d must project per-coordinate ciphertexts: %+v", slots, u)
		}
	}
	if r.CPUTime <= 0 {
		t.Fatal("CPU time should be positive")
	}
	if r.MessagesSent != w.Iterations*(w.GossipRounds+2*w.DecryptThreshold) {
		t.Fatalf("messages = %d", r.MessagesSent)
	}
	if r.BytesSent <= 0 || r.BytesReceived != r.BytesSent {
		t.Fatalf("bytes: sent %d received %d", r.BytesSent, r.BytesReceived)
	}
}

// TestProjectPackedWorkload checks the slot-packed projection: every
// per-ciphertext operation — openings included — and byte count divides
// by the packing factor (here an exact divisor of the side length, so
// ratios are exact), and Slots 0/1 are one ciphertext per coordinate.
func TestProjectPackedWorkload(t *testing.T) {
	p := measureSmall(t)
	w := baseWorkload()
	base, err := Project(p, w)
	if err != nil {
		t.Fatal(err)
	}
	pw := w
	pw.Slots = 5 // divides SideLen = 125 exactly
	if got := pw.SideCiphers(); got != 25 {
		t.Fatalf("SideCiphers = %d, want 25", got)
	}
	packed, err := Project(p, pw)
	if err != nil {
		t.Fatal(err)
	}
	if packed.EncryptOps*5 != base.EncryptOps ||
		packed.RerandomizeOps*5 != base.RerandomizeOps ||
		packed.AddOps*5 != base.AddOps ||
		packed.PartialDecryptOps*5 != base.PartialDecryptOps ||
		packed.CombineOps*5 != base.CombineOps {
		t.Fatalf("packed op counts not 1/5th of unpacked: %+v vs %+v", packed, base)
	}
	if packed.MessagesSent != base.MessagesSent {
		t.Fatalf("packing must not change message counts: %d vs %d", packed.MessagesSent, base.MessagesSent)
	}
	if packed.BytesSent >= base.BytesSent {
		t.Fatalf("packed bytes %d not below unpacked %d", packed.BytesSent, base.BytesSent)
	}
	for _, slots := range []int{0, 1} {
		uw := w
		uw.Slots = slots
		r, err := Project(p, uw)
		if err != nil {
			t.Fatal(err)
		}
		if r.EncryptOps != base.EncryptOps || r.BytesSent != base.BytesSent {
			t.Fatalf("Slots=%d must project the unpacked protocol", slots)
		}
	}
	bad := w
	bad.Slots = -1
	if _, err := Project(p, bad); err == nil {
		t.Fatal("negative Slots must be rejected")
	}
}

// TestProjectPricesGossipPerCipher pins what a gossip round costs: per
// ciphertext one rerandomization and one addition — no full-width
// exponentiation, and for participants gossiping in step no squaring.
func TestProjectPricesGossipPerCipher(t *testing.T) {
	p := measureSmall(t)
	w := baseWorkload()
	base, err := Project(p, w)
	if err != nil {
		t.Fatal(err)
	}
	rounds := time.Duration(w.Iterations * w.GossipRounds * w.VectorLen())
	fixed := time.Duration(base.EncryptOps)*p.FastEncrypt +
		time.Duration(w.Iterations*w.SideCiphers())*p.Add + // step 2c
		time.Duration(base.PartialDecryptOps)*p.FastPartialDecrypt +
		time.Duration(base.CombineOps)*p.FastCombine
	if want := fixed + rounds*(p.FastRerandomize+p.Add); base.CPUTimeFast != want {
		t.Fatalf("fast CPU = %v, want %v: encrypt/decrypt plus (rerandomize + add) per cipher per round", base.CPUTimeFast, want)
	}
}

func TestProjectScalesLinearlyInIterations(t *testing.T) {
	p := measureSmall(t)
	w := baseWorkload()
	r1, err := Project(p, w)
	if err != nil {
		t.Fatal(err)
	}
	w.Iterations *= 2
	r2, err := Project(p, w)
	if err != nil {
		t.Fatal(err)
	}
	if r2.EncryptOps != 2*r1.EncryptOps || r2.BytesSent != 2*r1.BytesSent {
		t.Fatalf("doubling iterations: %d->%d encrypts, %d->%d bytes",
			r1.EncryptOps, r2.EncryptOps, r1.BytesSent, r2.BytesSent)
	}
}

func TestProjectIndependentOfPopulation(t *testing.T) {
	// Per-participant costs must NOT grow with the population — the
	// scalability claim of the paper (costs depend on k, d, rounds, t).
	p := measureSmall(t)
	w := baseWorkload()
	r1, err := Project(p, w)
	if err != nil {
		t.Fatal(err)
	}
	w.Participants = 1000000
	r2, err := Project(p, w)
	if err != nil {
		t.Fatal(err)
	}
	if r1.BytesSent != r2.BytesSent || r1.CPUTime != r2.CPUTime {
		t.Fatal("per-participant cost changed with population size")
	}
}

func TestProjectValidation(t *testing.T) {
	p := measureSmall(t)
	bad := baseWorkload()
	bad.K = 0
	if _, err := Project(p, bad); err == nil {
		t.Fatal("invalid workload should error")
	}
	if _, err := Project(nil, baseWorkload()); err == nil {
		t.Fatal("nil profile should error")
	}
}

func TestDecryptLatency(t *testing.T) {
	p := measureSmall(t)
	r, err := Project(p, baseWorkload())
	if err != nil {
		t.Fatal(err)
	}
	meanLen := 5 * 25
	want := time.Duration(meanLen)*p.PartialDecrypt + time.Duration(meanLen)*p.Combine
	if r.DecryptLatency != want {
		t.Fatalf("latency = %v, want %v", r.DecryptLatency, want)
	}
}

func TestLargerKeysCostMore(t *testing.T) {
	small, err := MeasureProfile(128, 1, 3, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	big, err := MeasureProfile(512, 1, 3, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if big.CiphertextBytes <= small.CiphertextBytes {
		t.Fatalf("512-bit ciphertexts (%dB) not larger than 128-bit (%dB)",
			big.CiphertextBytes, small.CiphertextBytes)
	}
	// Timings are noisy on shared machines, but a 4x modulus must not be
	// faster at encryption by more than measurement jitter.
	if big.Encrypt < small.Encrypt/2 {
		t.Fatalf("512-bit encrypt (%v) implausibly faster than 128-bit (%v)", big.Encrypt, small.Encrypt)
	}
}
