// Package costmodel reproduces the demonstration's cost methodology
// (Sec. III.B): the demo runs with homomorphic operations disabled and
// displays "the performance overhead that would be due to homomorphic
// operations and to a larger population size ... based on actual average
// measures performed beforehand (e.g., of encryption/decryption/addition
// times)".
//
// Accordingly, this package (1) measures real per-operation timings of the
// Damgård–Jurik implementation on the current machine, and (2) projects
// them — together with message and byte counts derived from the protocol
// structure — onto arbitrary population sizes, key sizes and parameter
// choices.
//
// # Agreement with the simulator (E5b cross-check)
//
// scalecheck_test.go compares the projection against a live sharded
// simulator run of the scale workload's shape. The structural counts
// — messages per participant, decrypt requests, sent-copy
// rerandomizations and exponent-aligning squarings — are exact, and so
// are the byte totals: a gossip message is charged its ciphertexts, the
// public centroids it carries and 16 bytes of iteration tag, weight and
// exponent, a decrypt request or response its ciphertexts and 8 bytes,
// as the simulator accounts them. The accounted backend's plaintext ring
// is as wide as the declared key's plaintext space, so packing factors
// derive from the key's ModulusBits·Degree − 1 usable bits on both
// backends. The cross-check pins the equality, so a structural change in
// either side surfaces as a test failure rather than silently
// invalidating the projections.
package costmodel

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"time"

	"chiaroscuro/internal/crypto/damgardjurik"
)

// CryptoProfile holds measured per-operation averages for one key
// configuration. Every operation that has a precomputed fast path
// (docs/CRYPTO.md) is measured twice: the retained naive reference
// (Encrypt, Decrypt, PartialDecrypt, Combine, Rerandomize) and the
// fast-path counterpart (Fast*), so accounted-mode reports can surface
// both the historical naive projection and what the current
// implementation actually costs.
type CryptoProfile struct {
	KeyBits int
	Degree  int // Damgård–Jurik s

	// Naive reference timings.
	Encrypt time.Duration
	Decrypt time.Duration
	Add     time.Duration
	// ScalarMul is a full-width exponent: what halving a ciphertext in
	// place (multiplying by 2^{-1} mod n^s) costs. The protocol no longer
	// does that — the halvings travel as an exponent beside the
	// ciphertexts — so no projection charges it; it is kept as the price
	// of what is avoided (E5a) and of core.CipherSuite.Halve, the eager
	// oracle bench/ still times.
	ScalarMul time.Duration
	// Square is one modular squaring of a ciphertext, ScalarMul(c, 2):
	// the unit aligning two halving exponents costs (core's Double(c, k)
	// is k of them).
	Square         time.Duration
	PartialDecrypt time.Duration
	Combine        time.Duration
	Rerandomize    time.Duration

	// Fast-path timings: fixed-base table encryption, CRT decryption (a
	// single holder's, who has the factorization), batched
	// multi-exponentiation combine, pooled rerandomization. A share
	// holder has no faster partial decryption than the one it has, so
	// FastPartialDecrypt is PartialDecrypt.
	FastEncrypt        time.Duration
	FastDecrypt        time.Duration
	FastPartialDecrypt time.Duration
	FastCombine        time.Duration
	FastRerandomize    time.Duration

	CiphertextBytes int
}

// MeasureProfile times the real implementation over reps repetitions per
// operation, using fixture moduli (so the measurement is instant to set
// up). parties/threshold configure the threshold operations. Both the
// naive references and the precomputed fast paths are measured; the
// one-time fixed-base table construction happens outside the timed
// regions (the protocol amortizes it across a whole run), and the fast
// randomized ops are timed synchronously — the RandomizerPool mints
// exactly the randomizers a run provisions, ahead of use, so it moves
// that work off the latency path but not out of the CPU cost a
// projection must charge.
func MeasureProfile(keyBits, degree, parties, threshold, reps int) (*CryptoProfile, error) {
	if reps < 1 {
		reps = 8
	}
	tk, shares, err := damgardjurik.FixtureThresholdKey(keyBits, degree, parties, threshold)
	if err != nil {
		return nil, err
	}
	sk, err := damgardjurik.FixturePrivateKey(keyBits, degree)
	if err != nil {
		return nil, err
	}
	ec, err := tk.NewEncContext(rand.Reader)
	if err != nil {
		return nil, err
	}
	pool := damgardjurik.NewRandomizerPool(ec, 1) // unprovisioned: every draw mints
	prof := &CryptoProfile{
		KeyBits:         keyBits,
		Degree:          degree,
		CiphertextBytes: tk.CiphertextBytes(),
	}

	msg := big.NewInt(123456789)
	half := new(big.Int).ModInverse(big.NewInt(2), tk.PlaintextModulus())

	avg := func(f func(i int) error) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < reps; i++ {
			if err := f(i); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / time.Duration(reps), nil
	}

	// Encrypt: naive full-width randomizer vs fixed-base table + pool.
	var cts []*big.Int
	prof.Encrypt, err = avg(func(int) error {
		c, err := tk.Encrypt(rand.Reader, msg)
		cts = append(cts, c)
		return err
	})
	if err != nil {
		return nil, err
	}
	if prof.FastEncrypt, err = avg(func(int) error {
		_, err := pool.Encrypt(msg)
		return err
	}); err != nil {
		return nil, err
	}

	// Add.
	acc := cts[0]
	if prof.Add, err = avg(func(i int) error {
		acc, err = tk.Add(acc, cts[i%len(cts)])
		return err
	}); err != nil {
		return nil, err
	}

	// ScalarMul (halving-style full-width exponent) and one squaring.
	if prof.ScalarMul, err = avg(func(i int) error {
		_, err := tk.ScalarMul(cts[i%len(cts)], half)
		return err
	}); err != nil {
		return nil, err
	}
	two := big.NewInt(2)
	if prof.Square, err = avg(func(i int) error {
		_, err := tk.ScalarMul(cts[i%len(cts)], two)
		return err
	}); err != nil {
		return nil, err
	}

	// Rerandomize: fresh exponentiation vs pooled precomputed factor.
	if prof.Rerandomize, err = avg(func(i int) error {
		_, err := tk.Rerandomize(rand.Reader, cts[i%len(cts)])
		return err
	}); err != nil {
		return nil, err
	}
	if prof.FastRerandomize, err = avg(func(i int) error {
		_, err := pool.Rerandomize(cts[i%len(cts)])
		return err
	}); err != nil {
		return nil, err
	}

	// Single-holder decrypt: naive vs CRT.
	ct, err := sk.Encrypt(rand.Reader, msg)
	if err != nil {
		return nil, err
	}
	if prof.Decrypt, err = avg(func(int) error {
		_, err := sk.DecryptNaive(ct)
		return err
	}); err != nil {
		return nil, err
	}
	if prof.FastDecrypt, err = avg(func(int) error {
		_, err := sk.Decrypt(ct)
		return err
	}); err != nil {
		return nil, err
	}

	// Partial decryption: the share holder's one route.
	if prof.PartialDecrypt, err = avg(func(i int) error {
		_, err := tk.PartialDecrypt(shares[i%threshold], cts[0])
		return err
	}); err != nil {
		return nil, err
	}
	prof.FastPartialDecrypt = prof.PartialDecrypt

	// Combine: per-partial exponentiations vs batched multi-exponentiation.
	parts := make([]damgardjurik.PartialDecryption, threshold)
	for i := 0; i < threshold; i++ {
		parts[i], err = tk.PartialDecrypt(shares[i], cts[0])
		if err != nil {
			return nil, err
		}
	}
	if prof.Combine, err = avg(func(int) error {
		_, err := tk.CombineNaive(parts)
		return err
	}); err != nil {
		return nil, err
	}
	if prof.FastCombine, err = avg(func(int) error {
		_, err := tk.Combine(parts)
		return err
	}); err != nil {
		return nil, err
	}

	return prof, nil
}

// Workload describes one Chiaroscuro deployment for cost projection.
type Workload struct {
	Participants     int
	K                int // clusters
	Dim              int // series length
	Iterations       int
	GossipRounds     int // exchanges per participant per gossip phase
	DecryptThreshold int // partial decryptions needed

	// Slots is the number of coordinates packed per ciphertext
	// (core.PackedSlots derives it from the key size and the headroom
	// budget); 0 or 1 projects one ciphertext per coordinate.
	Slots int
}

func (w Workload) validate() error {
	if w.Participants < 2 || w.K < 1 || w.Dim < 1 || w.Iterations < 1 || w.GossipRounds < 1 || w.DecryptThreshold < 1 ||
		w.Slots < 0 {
		return fmt.Errorf("costmodel: invalid workload %+v", w)
	}
	return nil
}

// SideLen is the number of coordinates of the encrypted side: per
// cluster, the d-dimensional sum plus the count.
func (w Workload) SideLen() int {
	return w.K * (w.Dim + 1)
}

// SideCiphers is the number of ciphertexts carrying the encrypted side:
// the vector gossiped per message, and the number a participant opens
// per iteration, ⌈SideLen/Slots⌉.
func (w Workload) SideCiphers() int {
	slots := max(w.Slots, 1)
	return (w.SideLen() + slots - 1) / slots
}

// Report is the projected per-participant cost of a full run — the
// numbers the demo GUI surfaces as "network and encryption costs".
type Report struct {
	Workload Workload

	// Per-participant operation counts over the whole run. A gossip
	// halving is an increment of the exponent beside the ciphertexts and
	// costs no operation; every emitted ciphertext is rerandomized (the
	// traffic-analysis defence of the real backend), so RerandomizeOps is
	// one per ciphertext per round.
	EncryptOps        int
	AddOps            int
	RerandomizeOps    int
	PartialDecryptOps int
	CombineOps        int

	// Per-participant totals. CPUTime is projected from the naive
	// reference timings (the historical baseline the demo scaled up
	// from); CPUTimeFast projects the same operation counts through the
	// precomputed fast paths — what the current implementation would
	// actually spend.
	CPUTime       time.Duration
	CPUTimeFast   time.Duration
	MessagesSent  int
	BytesSent     int64
	BytesReceived int64

	// DecryptLatency is the wall-clock of one collaborative decryption
	// (t partial decryptions, serialized on the requester, plus combine);
	// DecryptLatencyFast is its fast-path counterpart.
	DecryptLatency     time.Duration
	DecryptLatencyFast time.Duration

	// DecryptRequests and DecryptBytes are the decrypt-phase slice of
	// the per-participant message and byte totals (requests sent plus
	// responses served) — the simulator's Trace.DecryptRequests and
	// Trace.DecryptBytes, broken out so the projection can be
	// cross-checked against a live run (see scalecheck_test.go).
	DecryptRequests int
	DecryptBytes    int64
}

// Project derives the per-participant cost report of the workload under
// the measured profile. Counting (per participant, per iteration):
//
//   - assignment: add a noise share to each of the K·(Dim+1) mean
//     entries in the clear and encrypt the sums, packed Slots
//     coordinates to a ciphertext (SideCiphers encryptions);
//   - gossip: GossipRounds rounds; each round halves the vector by
//     incrementing the exponent that travels beside it (no operation),
//     rerandomizes the copy it sends so the share cannot be traced
//     across hops (SideCiphers rerandomizations, 1 message of
//     SideCiphers ciphertexts), and absorbs an expected 1 incoming
//     message (SideCiphers additions) — so a round costs Rerandomize +
//     Add per ciphertext;
//   - opening: the gossiped vector is already perturbed, and it is what
//     the participant opens (no operation);
//   - collaborative decryption: the participant asks DecryptThreshold
//     peers (request carries the SideCiphers perturbed-mean ciphertexts,
//     response the same volume), serves on average DecryptThreshold
//     requests from others (each costing SideCiphers partial
//     decryptions), and combines its own (SideCiphers combine ops).
//
// The projection is of participants gossiping in step — every fault-free
// run of the cycle engines and of the daemon's epoch clock — whose shares
// merge at equal halving exponents. A participant that lags (crashed and
// rejoined, then late-synchronized) additionally pays CryptoProfile.Square
// per ciphertext per halving of gap when it merges; that is not priced
// here.
//
// Every per-ciphertext count scales down by the packing factor, which is
// how slot packing compounds across the whole projection.
func Project(p *CryptoProfile, w Workload) (*Report, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("costmodel: nil profile")
	}
	opened := w.SideCiphers() // ciphertexts gossiped, and opened per iteration

	r := &Report{Workload: w}
	it := w.Iterations
	r.EncryptOps = it * opened
	r.RerandomizeOps = it * w.GossipRounds * opened // every emitted copy is refreshed before it travels
	r.AddOps = it * w.GossipRounds * opened         // gossip merges
	r.PartialDecryptOps = it * w.DecryptThreshold * opened
	r.CombineOps = it * opened

	r.CPUTime = time.Duration(r.EncryptOps)*p.Encrypt +
		time.Duration(r.RerandomizeOps)*p.Rerandomize +
		time.Duration(r.AddOps)*p.Add +
		time.Duration(r.PartialDecryptOps)*p.PartialDecrypt +
		time.Duration(r.CombineOps)*p.Combine
	r.CPUTimeFast = time.Duration(r.EncryptOps)*orElse(p.FastEncrypt, p.Encrypt) +
		time.Duration(r.RerandomizeOps)*orElse(p.FastRerandomize, p.Rerandomize) +
		time.Duration(r.AddOps)*p.Add +
		time.Duration(r.PartialDecryptOps)*orElse(p.FastPartialDecrypt, p.PartialDecrypt) +
		time.Duration(r.CombineOps)*orElse(p.FastCombine, p.Combine)

	cb := int64(p.CiphertextBytes)
	gossipMsgs := it * w.GossipRounds
	// +K·Dim·8: the public centroids; +16: iteration tag, weight, exponent.
	gossipBytes := int64(gossipMsgs) * (int64(opened)*cb + int64(w.K*w.Dim*8) + 16)
	decReqMsgs := it * w.DecryptThreshold
	decReqBytes := int64(decReqMsgs) * (int64(opened)*cb + 8) // +8: iteration tag
	decRespMsgs := it * w.DecryptThreshold                    // served for others
	decRespBytes := int64(decRespMsgs) * (int64(opened)*cb + 8)

	r.MessagesSent = gossipMsgs + decReqMsgs + decRespMsgs
	r.BytesSent = gossipBytes + decReqBytes + decRespBytes
	r.BytesReceived = gossipBytes + decReqBytes + decRespBytes // symmetric in expectation
	r.DecryptRequests = decReqMsgs
	r.DecryptBytes = decReqBytes + decRespBytes

	r.DecryptLatency = time.Duration(opened)*p.PartialDecrypt + time.Duration(opened)*p.Combine
	r.DecryptLatencyFast = time.Duration(opened)*orElse(p.FastPartialDecrypt, p.PartialDecrypt) +
		time.Duration(opened)*orElse(p.FastCombine, p.Combine)
	return r, nil
}

// orElse substitutes the naive measurement when a fast-path one is
// absent (hand-built profiles), so fast projections degrade gracefully.
func orElse(fast, naive time.Duration) time.Duration {
	if fast > 0 {
		return fast
	}
	return naive
}
