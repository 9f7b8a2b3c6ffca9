// Package core implements the Chiaroscuro protocol itself: the Diptych
// data structure and the iterative execution sequence of Sec. II.B —
// local assignment over perturbed cleartext centroids, distributed
// computation of the encrypted means and encrypted Laplace noise by
// gossip, collaborative (threshold) decryption of the perturbed means,
// and the local convergence step — plus the quality-enhancing heuristics
// (privacy-budget distribution and smoothing of perturbed means).
//
// The protocol code is written against the CipherSuite interface, with
// two interchangeable backends over the same value type, one big integer
// per Cipher:
//
//   - the real Damgård–Jurik backend (suite_dj.go), running genuine
//     homomorphic arithmetic and threshold decryptions;
//   - the accounted plaintext backend (suite_plain.go), which executes
//     bit-identical ring arithmetic on plaintext residues while counting
//     every operation, mirroring the demonstration platform: "we disable
//     the homomorphic operations ... the performance overhead ... is
//     clearly displayed ... based on actual average measures performed
//     beforehand" (Sec. III.B).
package core

import (
	"math/big"
	"sync/atomic"
)

// Cipher is one encrypted (or accounted-plaintext) ring element: on the
// Damgård–Jurik backend a unit mod n^{s+1}, on the accounted backend a
// residue of Z_M, the plaintext ring itself. Which one is the suite's
// business; ValidateCipher checks a value against it.
type Cipher = *big.Int

// Partial is one party's contribution to a collaborative decryption.
type Partial struct {
	// Index is the 1-based key-share index of the contributing party.
	Index int
	// Value is backend-specific.
	Value *big.Int
}

// OpCounts tallies homomorphic operations, the basis of the cost
// projection in the accounted backend.
type OpCounts struct {
	Encrypts int64
	Adds     int64
	// Halvings counts cipher halvings however they were performed: by
	// the exponent beside the ciphertext (every run; each is also one of
	// Refreshes) or inside it by Halve (the eager oracle, which no run
	// path calls — Halvings − Refreshes is the number of those).
	Halvings int64
	// Doublings counts the modular squarings spent aligning halving
	// exponents before a merge: DoubleInPlace(c, k) adds k.
	Doublings int64
	// Refreshes counts sent-copy rerandomizations: one per ciphertext
	// per gossip emission.
	Refreshes       int64
	PartialDecrypts int64
	Combines        int64
	// CombineCtxHits counts responder-set combine plans served from the
	// suite's cache instead of being rebuilt (Damgård–Jurik backend; the
	// accounted backend has no plan to cache).
	CombineCtxHits int64
	// PartialCacheHits counts decrypt requests a responder served from
	// its memoized per-(iteration, cipher-set) partials instead of
	// recomputing them (summed across participants by buildTrace).
	PartialCacheHits int64
}

// opCounters is the counter block both suites embed; the atomics make it
// safe under the sharded engine's parallel workers.
type opCounters struct {
	encrypts        atomic.Int64
	adds            atomic.Int64
	halvings        atomic.Int64 // eager Halve calls only
	doublings       atomic.Int64
	refreshes       atomic.Int64
	partialDecrypts atomic.Int64
	combines        atomic.Int64
}

// Counts implements CipherSuite: every refresh is also a halving.
func (c *opCounters) Counts() OpCounts {
	refreshes := c.refreshes.Load()
	return OpCounts{
		Encrypts:        c.encrypts.Load(),
		Adds:            c.adds.Load(),
		Halvings:        c.halvings.Load() + refreshes,
		Doublings:       c.doublings.Load(),
		Refreshes:       refreshes,
		PartialDecrypts: c.partialDecrypts.Load(),
		Combines:        c.combines.Load(),
	}
}

// CipherSuite is the encryption abstraction Chiaroscuro needs
// (Sec. II.A): semantic security is the backend's concern; additive
// homomorphism and collaborative decryption by any sufficiently large
// subset are expressed in the interface.
type CipherSuite interface {
	// Name identifies the backend in logs and experiment tables.
	Name() string
	// PlainModulus returns the plaintext ring modulus M (a fresh copy).
	PlainModulus() *big.Int
	// CipherBytes is the serialized size of one Cipher, for accounting.
	CipherBytes() int

	// Encrypt maps a plaintext residue (0 <= m < M) to a fresh Cipher.
	Encrypt(m *big.Int) (Cipher, error)
	// Add returns a fresh Cipher of the sum of the two plaintexts (step
	// 2c's noise addition).
	Add(a, b Cipher) (Cipher, error)
	// Halve returns a Cipher of the plaintext multiplied by 2^{-1} mod M:
	// the eager halving the exponent replaced, a full-width modular
	// exponentiation on the real backend. It is kept as the oracle the
	// exponent path is property-tested against and as the probe bench/
	// times; no run path calls it.
	Halve(c Cipher) (Cipher, error)

	// The push-sum arithmetic runs in place (see cipherRing). Each
	// operation below mutates only its first argument, which must be a
	// cipher its caller owns exclusively — from NewCipherVector or from
	// one of the suite's constructors (Encrypt) — and counts exactly what
	// its allocating counterpart would.
	//
	// NewCipherVector returns n owned ciphers in one contiguous slab,
	// each sized so the in-place operations never grow it.
	NewCipherVector(n int) ([]Cipher, error)
	// EncryptInto is Encrypt writing into dst's storage.
	EncryptInto(dst Cipher, m *big.Int) error
	// AddInPlace sets acc to a Cipher of the sum of both plaintexts.
	AddInPlace(acc, v Cipher)
	// AddAllInPlace left-folds vs into acc.
	AddAllInPlace(acc Cipher, vs []Cipher)
	// DoubleInPlace multiplies c's plaintext by 2^k — k modular
	// squarings on the real backend. Gossip calls it to align the
	// halving exponents of two shares before adding them.
	DoubleInPlace(c Cipher, k uint)
	// RefreshInPlace makes c a ciphertext of the same plaintext that
	// cannot be linked to its previous value: the copy of a share that
	// leaves the node. It is the whole per-cipher cost of a push-sum
	// halving — the division itself is the exponent's (gossip.State.H).
	RefreshInPlace(c Cipher) error

	// Parties and Threshold describe the key sharing: Threshold distinct
	// partial decryptions open a ciphertext.
	Parties() int
	Threshold() int
	// PartialDecrypt produces party's contribution for c. party is the
	// 1-based key-share index.
	PartialDecrypt(party int, c Cipher) (Partial, error)
	// Combine opens a ciphertext from at least Threshold distinct
	// partials (all for the same ciphertext).
	Combine(parts []Partial) (*big.Int, error)
	// CombineColumnsInto opens a whole pending-cipher vector against one
	// responder set, resolving the set (validation, Lagrange/multiexp
	// plan on the real backend) once instead of per ciphertext, into
	// dst's integers. sets[j] is responder j's per-cipher partials — all
	// carrying sets[j][0].Index — ordered ascending by share index
	// across j; the common cipher count is len(dst). Results and
	// operation counts are identical to len(dst) separate Combine calls
	// over the per-cipher columns.
	CombineColumnsInto(dst []*big.Int, sets [][]Partial) error

	// ValidateCipher rejects values that are not well-formed ciphertexts
	// of the suite (nil, out-of-ring residues, out-of-range group
	// elements) without touching any homomorphic state. Byzantine
	// fault plans (internal/simnet) enable per-message validation of
	// incoming gossip through it.
	ValidateCipher(c Cipher) error

	// The wire codec a networked run moves ciphers and partials with
	// (netcodec.go): the accounted suite encodes residue vectors, the
	// Damgård–Jurik suite ciphertext vectors — its processes share a key
	// via the pre-epoch distributed key ceremony, each holding only its
	// own share (Params.DJMaterial). Encoding appends to the caller's
	// buffer, writing every body in place, so a message is built in one
	// buffer with no intermediate encoding (the daemon's one copy of it
	// is the retransmit-ring entry). Decoding fills the caller's ciphers,
	// so a receiver can reuse storage across messages: Node decodes
	// gossip into receive slabs, and a decoded gossip payload is valid
	// until that node's next Step returns.
	//
	// AppendCipherVector appends the encoding of a vector of this suite's
	// ciphers to dst; on error dst comes back unextended.
	AppendCipherVector(dst []byte, cs []Cipher) ([]byte, error)
	// UnmarshalCipherVectorInto decodes and validates a vector of exactly
	// len(dst) ciphers into dst's storage (ciphers from NewCipherVector
	// decode without allocating). On error dst's values are unspecified.
	UnmarshalCipherVectorInto(dst []Cipher, buf []byte) error
	// AppendPartialValues appends the encoding of the values of a
	// partial-decryption vector (the shared responder index travels
	// separately) to dst.
	AppendPartialValues(dst []byte, ps []Partial) ([]byte, error)
	// UnmarshalPartialValues decodes partial values into fresh storage,
	// stamping each with the responder's key-share index.
	UnmarshalPartialValues(index int, buf []byte) ([]Partial, error)

	// Counts returns a snapshot of the operation counters.
	Counts() OpCounts

	// Provision adds that many draws to what the suite's randomizer
	// pool mints ahead of use: each host provisions its participants'
	// fault-free draws (runShared.provision), so the pool computes
	// nothing the run does not consume, and a draw past the provision
	// is computed on the spot. Close releases background resources (the
	// pool's fill); the suite stays usable afterwards. Both are no-ops
	// on the accounted backend.
	Provision(randomizers int)
	Close()
}
