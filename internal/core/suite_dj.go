package core

import (
	"errors"
	"fmt"
	"math/big"
	"sync"

	"chiaroscuro/internal/crypto/damgardjurik"
	"chiaroscuro/internal/vecpool"
	"chiaroscuro/internal/wire"
)

// djSuite is the real homomorphic backend over a threshold Damgård–Jurik
// key. Key material arrives one of two ways: the dealer path
// (NewDamgardJurikSuite) mints all shares from the fixture private key —
// kept as the oracle the DKG is property-tested against — and the
// ceremony path (NewDamgardJurikSuiteFromMaterial, keyceremony.go)
// reconstructs the key from public parameters plus whichever shares the
// ceremony handed this process (share index = participant id + 1; a
// networked process holds only its own).
//
// The suite runs entirely on the package's precomputed fast paths
// (docs/CRYPTO.md): encryption and noise-share encryption draw
// randomizers from a shared RandomizerPool over a fixed-base table,
// every gossip emission rerandomizes its sent copy from the same pool,
// and share combination is one batched multi-exponentiation. A partial
// decryption is a share holder's full-width exponentiation: no
// participant holds the factorization a CRT split would need. The pool
// starts empty and mints only what its host provisions — each hosted
// participant's fault-free draws (runShared.provision) — and takes back
// every randomizer's storage once its product is taken. The
// EncContext's table is immutable and the pool is lock-guarded, so all
// of it is shared safely by the sharded scheduler's parallel workers;
// per-worker scratch state lives in sync.Pools inside the crypto
// package, keeping workers contention-free. Close releases the pool's
// background fill (whoever opened the population calls it once, when
// its last run is done).
type djSuite struct {
	tk     *damgardjurik.ThresholdKey
	shares []damgardjurik.KeyShare
	inv2   *big.Int
	ctMod  *big.Int // cached n^{s+1} for ValidateCipher range checks
	pool   *damgardjurik.RandomizerPool

	opCounters
}

// djPoolBuffer bounds how many randomizers the pool's filler mints
// ahead of use; what it mints in total is what the run provisions.
const djPoolBuffer = 1024

// NewDamgardJurikSuite deals a fresh threshold key over fixture safe
// primes of the given modulus size and wraps it as a CipherSuite for a
// population of `parties` share holders with the given decryption
// threshold. Every participant gets what a ceremony would hand it: the
// key rebuilt from public parameters, plus its own share.
func NewDamgardJurikSuite(modulusBits, degree, parties, threshold int) (CipherSuite, error) {
	dealt, shares, err := damgardjurik.FixtureThresholdKey(modulusBits, degree, parties, threshold)
	if err != nil {
		return nil, err
	}
	tk, err := damgardjurik.NewThresholdKeyPublic(dealt.N, degree, parties, threshold, dealt.Scale())
	if err != nil {
		return nil, err
	}
	return newDJSuite(tk, shares)
}

func newDJSuite(tk *damgardjurik.ThresholdKey, shares []damgardjurik.KeyShare) (CipherSuite, error) {
	inv2 := new(big.Int).ModInverse(big.NewInt(2), tk.PlaintextModulus())
	if inv2 == nil {
		return nil, errors.New("core: 2 not invertible in plaintext ring")
	}
	enc, err := tk.NewEncContext(nil)
	if err != nil {
		return nil, err
	}
	return &djSuite{
		tk: tk, shares: shares, inv2: inv2, ctMod: tk.CiphertextModulus(),
		pool: damgardjurik.NewRandomizerPool(enc, djPoolBuffer),
	}, nil
}

// ValidateCipher implements CipherSuite: the value must lie in the
// multiplicative ciphertext range (0, n^{s+1}) — the same bound the
// homomorphic operations enforce, checked here without counting as an
// operation.
func (s *djSuite) ValidateCipher(c Cipher) error {
	if c == nil || c.Sign() <= 0 || c.Cmp(s.ctMod) >= 0 {
		return errors.New("core: damgard-jurik ciphertext out of range")
	}
	return nil
}

// Provision implements CipherSuite: the pool mints that many more
// randomizers ahead of use.
func (s *djSuite) Provision(randomizers int) { s.pool.Provision(randomizers) }

// Close implements CipherSuite: it stops the randomizer pool's
// background fill. The suite remains usable afterwards (randomizers
// are then computed synchronously).
func (s *djSuite) Close() { s.pool.Close() }

// Name implements CipherSuite.
func (s *djSuite) Name() string { return "damgard-jurik" }

// PlainModulus implements CipherSuite.
func (s *djSuite) PlainModulus() *big.Int { return s.tk.PlaintextModulus() }

// CipherBytes implements CipherSuite.
func (s *djSuite) CipherBytes() int { return s.tk.CiphertextBytes() }

// Encrypt implements CipherSuite: fixed-base fast-path encryption with a
// pooled randomizer (decrypt-identical to the naive ciphertexts).
func (s *djSuite) Encrypt(m *big.Int) (Cipher, error) {
	s.encrypts.Add(1)
	return s.pool.Encrypt(m)
}

// Add implements CipherSuite.
func (s *djSuite) Add(a, b Cipher) (Cipher, error) {
	s.adds.Add(1)
	return s.tk.Add(a, b)
}

// Halve implements CipherSuite: the eager oracle — homomorphic
// multiplication by 2^{-1} mod n^s (a full-width exponentiation),
// followed by re-randomization.
func (s *djSuite) Halve(c Cipher) (Cipher, error) {
	s.halvings.Add(1)
	h, err := s.tk.ScalarMul(c, s.inv2)
	if err != nil {
		return nil, err
	}
	return s.pool.Rerandomize(h)
}

// Parties implements CipherSuite.
func (s *djSuite) Parties() int { return s.tk.Parties }

// Threshold implements CipherSuite.
func (s *djSuite) Threshold() int { return s.tk.Threshold }

// PartialDecrypt implements CipherSuite.
func (s *djSuite) PartialDecrypt(party int, c Cipher) (Partial, error) {
	if party < 1 || party > len(s.shares) || s.shares[party-1].Value == nil {
		return Partial{}, fmt.Errorf("core: party %d has no key share", party)
	}
	s.partialDecrypts.Add(1)
	pd, err := s.tk.PartialDecrypt(s.shares[party-1], c)
	if err != nil {
		return Partial{}, err
	}
	return Partial{Index: pd.Index, Value: pd.Value}, nil
}

// Combine implements CipherSuite.
func (s *djSuite) Combine(parts []Partial) (*big.Int, error) {
	s.combines.Add(1)
	djParts := make([]damgardjurik.PartialDecryption, len(parts))
	for i, p := range parts {
		djParts[i] = damgardjurik.PartialDecryption{Index: p.Index, Value: p.Value}
	}
	return s.tk.Combine(djParts)
}

// CombineColumnsInto implements CipherSuite: it opens len(dst)
// ciphertexts against one responder set, resolving the set's combine
// plan (Lagrange coefficients, sign split, multiexp digit schedule) once
// via CombineContext and replaying it per ciphertext. sets beyond the
// threshold are ignored — ascending order means the lowest indices win,
// exactly the subset Combine's selectPartials would pick.
func (s *djSuite) CombineColumnsInto(dst []*big.Int, sets [][]Partial) error {
	count := len(dst)
	if count < 1 {
		return errors.New("core: empty cipher column")
	}
	if len(sets) < s.tk.Threshold {
		return fmt.Errorf("core: have %d responder sets, need %d", len(sets), s.tk.Threshold)
	}
	use := sets[:s.tk.Threshold]
	indices := make([]int, len(use))
	for j, set := range use {
		if len(set) != count {
			return fmt.Errorf("core: responder set %d has %d partials, want %d", j, len(set), count)
		}
		indices[j] = set[0].Index
	}
	// CombineContext validates ascending/distinct/in-range indices.
	ctx, err := s.tk.CombineContext(indices)
	if err != nil {
		return err
	}
	col := make([]damgardjurik.PartialDecryption, len(use))
	for i, d := range dst {
		for j, set := range use {
			p := set[i]
			if p.Value == nil {
				return errors.New("core: partial with nil value")
			}
			col[j] = damgardjurik.PartialDecryption{Index: p.Index, Value: p.Value}
		}
		v, err := s.tk.CombineWith(ctx, col)
		if err != nil {
			return err
		}
		d.Set(v)
	}
	s.combines.Add(int64(count))
	return nil
}

// CombineColumns is CombineColumnsInto returning count fresh integers:
// the form the suite-level combine probe times.
func (s *djSuite) CombineColumns(sets [][]Partial, count int) ([]*big.Int, error) {
	out := make([]*big.Int, max(count, 0))
	for i := range out {
		out[i] = new(big.Int)
	}
	if err := s.CombineColumnsInto(out, sets); err != nil {
		return nil, err
	}
	return out, nil
}

// --- In-place push-sum arithmetic ------------------------------------------
//
// Every operation is a modular product written into the operand's own
// big.Int: the double-width product and the quotient its reduction
// discards live in pooled scratch, and the operand's arena storage is
// wide enough to serve as the division's working buffer, so nothing
// grows. The values are those the allocating operations compute
// (tk.Add, ScalarMul by 2^k, pool.Rerandomize); only the storage
// differs. Operands are this suite's own values, so the range checks of
// the allocating path are not repeated.

// djTemps is the scratch of one in-place modular product.
type djTemps struct{ prod, quo big.Int }

var djScratch = sync.Pool{New: func() any { return new(djTemps) }}

// mulMod sets z = x·y mod n^{s+1}; z may alias x or y.
func (s *djSuite) mulMod(z, x, y *big.Int) {
	t := djScratch.Get().(*djTemps)
	t.prod.Mul(x, y)
	t.quo.QuoRem(&t.prod, s.ctMod, z)
	djScratch.Put(t)
}

// NewCipherVector implements CipherSuite: n values in one vecpool arena,
// each with room for a double-width product plus the division's carry.
func (s *djSuite) NewCipherVector(n int) ([]Cipher, error) {
	arena, err := vecpool.NewResidueArena(n, 2*s.ctMod.BitLen())
	if err != nil {
		return nil, err
	}
	out := make([]Cipher, n)
	for i := range out {
		out[i] = arena.Int(i).SetInt64(1) // the unit: an encryption of zero
	}
	return out, nil
}

// EncryptInto implements CipherSuite: a pooled fast-path encryption
// copied into dst.
func (s *djSuite) EncryptInto(dst Cipher, m *big.Int) error {
	c, err := s.Encrypt(m)
	if err != nil {
		return err
	}
	dst.Set(c)
	return nil
}

// AddInPlace implements CipherSuite: acc·v mod n^{s+1}.
func (s *djSuite) AddInPlace(acc, v Cipher) {
	s.adds.Add(1)
	s.mulMod(acc, acc, v)
}

// AddAllInPlace implements CipherSuite.
func (s *djSuite) AddAllInPlace(acc Cipher, vs []Cipher) {
	for _, v := range vs {
		s.AddInPlace(acc, v)
	}
}

// DoubleInPlace implements CipherSuite: c^(2^k) mod n^{s+1}, k modular
// squarings. The result is not rerandomized — it is merged into the
// caller's own state, and nothing leaves a node without a refresh.
func (s *djSuite) DoubleInPlace(c Cipher, k uint) {
	s.doublings.Add(int64(k))
	s.square(c, k)
}

// square sets c to c^(2^k) mod n^{s+1}.
func (s *djSuite) square(c Cipher, k uint) {
	for ; k > 0; k-- {
		s.mulMod(c, c, c)
	}
}

// RefreshInPlace implements CipherSuite: multiplication by a pooled
// encryption of zero. The refresh matters because shares travel to
// random peers while their sender keeps gossiping the same mass:
// without it, two consecutive emissions of an unchanged state would be
// the same ciphertext, and an observer could trace a contribution across
// gossip hops by recognizing it.
func (s *djSuite) RefreshInPlace(c Cipher) error {
	rz := s.pool.Get()
	s.refreshes.Add(1)
	s.mulMod(c, c, rz)
	s.pool.Recycle(rz)
	return nil
}

// AppendCipherVector implements CipherSuite: Damgård–Jurik ciphers are
// units mod n^{s+1}, encoded fixed-width via the wire ciphertext-vector
// artifact.
func (s *djSuite) AppendCipherVector(dst []byte, cs []Cipher) ([]byte, error) {
	return wire.AppendCiphertextVector(dst, &s.tk.PublicKey, cs, cipherValue)
}

// UnmarshalCipherVectorInto implements CipherSuite. Every decoded value
// is range-checked against the ciphertext modulus by the wire layer.
func (s *djSuite) UnmarshalCipherVectorInto(dst []Cipher, buf []byte) error {
	return wire.UnmarshalCiphertextVectorInto(&s.tk.PublicKey, dst, buf)
}

// AppendPartialValues implements CipherSuite: partial decryptions
// c^{2Δ·s_i} live in the same group as ciphertexts, so they share the
// ciphertext-vector artifact and its range validation.
func (s *djSuite) AppendPartialValues(dst []byte, ps []Partial) ([]byte, error) {
	return wire.AppendCiphertextVector(dst, &s.tk.PublicKey, ps, partialValue)
}

// UnmarshalPartialValues implements CipherSuite.
func (s *djSuite) UnmarshalPartialValues(index int, buf []byte) ([]Partial, error) {
	vs, err := wire.UnmarshalCiphertextVector(&s.tk.PublicKey, buf)
	if err != nil {
		return nil, err
	}
	return stampPartials(index, vs), nil
}

// Counts implements CipherSuite, adding the combine-plan cache hits.
func (s *djSuite) Counts() OpCounts {
	c := s.opCounters.Counts()
	c.CombineCtxHits = s.tk.CombineContextHits()
	return c
}
