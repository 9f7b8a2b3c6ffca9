// Package damgardjurik implements the Damgård–Jurik generalization of the
// Paillier public-key cryptosystem (Damgård & Jurik, PKC 2001), the
// encryption scheme used by Chiaroscuro. It provides:
//
//   - semantic security under the Decisional Composite Residuosity
//     assumption (ciphertexts are randomized);
//   - additive homomorphism: Add(E(a), E(b)) = E(a+b), ScalarMul(E(a), k)
//     = E(k·a), over the plaintext ring Z_{n^s};
//   - threshold ("collaborative") decryption following the scheme of
//     Section 4.1 of the paper (Shoup-style): the secret is Shamir-shared
//     among l parties and any w of them can decrypt by contributing
//     partial decryptions, without ever reconstructing the key.
//
// Chiaroscuro's requirements on the scheme (demo paper, Sec. II.A) are
// exactly these three properties.
//
// The degree parameter s sets the plaintext space to Z_{n^s} and the
// ciphertext space to Z*_{n^{s+1}}; s=1 recovers classic Paillier.
//
// Ciphertexts and plaintexts are *big.Int values. This implementation
// targets the honest-but-curious model of the paper: zero-knowledge
// proofs of correct partial decryption (used against active adversaries)
// are out of scope and documented as such in docs/CRYPTO.md, along with
// the scheme description, the precomputed fast paths (fixed-base
// encryption, a single holder's CRT decryption, pooled
// rerandomization, batched share combination) and the remaining
// security caveats.
package damgardjurik

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

var (
	one = big.NewInt(1)
	two = big.NewInt(2)
)

// Common errors.
var (
	ErrInvalidCiphertext = errors.New("damgardjurik: invalid ciphertext")
	ErrInvalidPlaintext  = errors.New("damgardjurik: invalid plaintext")
	ErrKeyGeneration     = errors.New("damgardjurik: key generation failed")
)

// PublicKey holds the public parameters (n, s) plus cached powers of n.
type PublicKey struct {
	N *big.Int // RSA-type modulus n = p·q
	S int      // degree: plaintext space Z_{n^s}

	ns  *big.Int // n^s, the plaintext modulus
	ns1 *big.Int // n^{s+1}, the ciphertext modulus
}

// NewPublicKey builds a public key from its transportable parameters
// (n, s), validating them and rebuilding the cached moduli. Used when
// deserializing keys received from a dealer (see internal/wire).
func NewPublicKey(n *big.Int, s int) (*PublicKey, error) {
	return newPublicKey(n, s)
}

// newPublicKey builds a PublicKey and its caches.
func newPublicKey(n *big.Int, s int) (*PublicKey, error) {
	if s < 1 {
		return nil, fmt.Errorf("damgardjurik: degree s=%d < 1", s)
	}
	if n == nil || n.Sign() <= 0 || n.Bit(0) == 0 {
		return nil, errors.New("damgardjurik: modulus must be a positive odd integer")
	}
	pk := &PublicKey{N: new(big.Int).Set(n), S: s}
	pk.ns = pow(n, s)
	pk.ns1 = new(big.Int).Mul(pk.ns, n)
	return pk, nil
}

// PlaintextModulus returns n^s (a fresh copy).
func (pk *PublicKey) PlaintextModulus() *big.Int { return new(big.Int).Set(pk.ns) }

// CiphertextModulus returns n^{s+1} (a fresh copy).
func (pk *PublicKey) CiphertextModulus() *big.Int { return new(big.Int).Set(pk.ns1) }

// CiphertextBytes returns the byte length of a serialized ciphertext.
func (pk *PublicKey) CiphertextBytes() int { return (pk.ns1.BitLen() + 7) / 8 }

// Encrypt encrypts m (interpreted mod n^s) with fresh randomness from rnd
// (crypto/rand.Reader if nil): c = (1+n)^m · r^{n^s} mod n^{s+1}.
func (pk *PublicKey) Encrypt(rnd io.Reader, m *big.Int) (*big.Int, error) {
	r, err := pk.randomUnit(rnd)
	if err != nil {
		return nil, err
	}
	return pk.EncryptWithNonce(m, r)
}

// EncryptWithNonce encrypts m with the caller-chosen unit r in Z*_n.
// Deterministic given (m, r); intended for tests and derandomized
// protocols. r must satisfy 0 < r < n and gcd(r, n) = 1.
func (pk *PublicKey) EncryptWithNonce(m, r *big.Int) (*big.Int, error) {
	if m == nil {
		return nil, fmt.Errorf("%w: nil", ErrInvalidPlaintext)
	}
	if r == nil || r.Sign() <= 0 || r.Cmp(pk.N) >= 0 {
		return nil, errors.New("damgardjurik: nonce out of range")
	}
	if new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) != 0 {
		return nil, errors.New("damgardjurik: nonce not a unit mod n")
	}
	mm := new(big.Int).Mod(m, pk.ns)
	gm := pk.powOnePlusN(mm)
	rn := new(big.Int).Exp(r, pk.ns, pk.ns1)
	c := gm.Mul(gm, rn)
	return c.Mod(c, pk.ns1), nil
}

// Add homomorphically adds two ciphertexts: E(a)·E(b) = E(a+b mod n^s).
// The double-width product lives in pooled scratch; only the reduced
// result is freshly allocated (callers retain it).
func (pk *PublicKey) Add(c1, c2 *big.Int) (*big.Int, error) {
	if err := pk.CheckCiphertext(c1); err != nil {
		return nil, err
	}
	if err := pk.CheckCiphertext(c2); err != nil {
		return nil, err
	}
	prod := getInt()
	prod.Mul(c1, c2)
	out := new(big.Int).Mod(prod, pk.ns1)
	putInt(prod)
	return out, nil
}

// ScalarMul homomorphically multiplies the plaintext by integer k:
// E(a)^k = E(k·a mod n^s). Negative k uses the modular inverse of the
// ciphertext (always a unit).
func (pk *PublicKey) ScalarMul(c, k *big.Int) (*big.Int, error) {
	if err := pk.CheckCiphertext(c); err != nil {
		return nil, err
	}
	kk := getInt()
	kk.Mod(k, pk.ns) // exponent arithmetic is mod n^s on plaintexts
	out := new(big.Int).Exp(c, kk, pk.ns1)
	putInt(kk)
	return out, nil
}

// Sub homomorphically subtracts: E(a)·E(b)^{-1} = E(a-b mod n^s).
func (pk *PublicKey) Sub(c1, c2 *big.Int) (*big.Int, error) {
	if err := pk.CheckCiphertext(c1); err != nil {
		return nil, err
	}
	if err := pk.CheckCiphertext(c2); err != nil {
		return nil, err
	}
	inv := new(big.Int).ModInverse(c2, pk.ns1)
	if inv == nil {
		return nil, fmt.Errorf("%w: not a unit", ErrInvalidCiphertext)
	}
	out := inv.Mul(c1, inv)
	return out.Mod(out, pk.ns1), nil
}

// Rerandomize refreshes a ciphertext's randomness without changing the
// plaintext: c · r^{n^s} mod n^{s+1}. Used by gossip exchanges to prevent
// ciphertext-equality tracing.
func (pk *PublicKey) Rerandomize(rnd io.Reader, c *big.Int) (*big.Int, error) {
	if err := pk.CheckCiphertext(c); err != nil {
		return nil, err
	}
	r, err := pk.randomUnit(rnd)
	if err != nil {
		return nil, err
	}
	rn := new(big.Int).Exp(r, pk.ns, pk.ns1)
	out := rn.Mul(c, rn)
	return out.Mod(out, pk.ns1), nil
}

// CheckCiphertext validates that c lies in the ciphertext ring
// (0 < c < n^{s+1}) without allocating: decoders reject a peer's
// out-of-range values with it.
func (pk *PublicKey) CheckCiphertext(c *big.Int) error {
	if c == nil || c.Sign() <= 0 || c.Cmp(pk.ns1) >= 0 {
		return ErrInvalidCiphertext
	}
	return nil
}

// randomUnit draws a uniformly random element of Z*_n.
func (pk *PublicKey) randomUnit(rnd io.Reader) (*big.Int, error) {
	if rnd == nil {
		rnd = rand.Reader
	}
	for i := 0; i < 128; i++ {
		r, err := rand.Int(rnd, pk.N)
		if err != nil {
			return nil, fmt.Errorf("damgardjurik: randomness: %w", err)
		}
		if r.Sign() == 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			return r, nil
		}
	}
	return nil, errors.New("damgardjurik: could not sample a unit mod n")
}

// powOnePlusN computes (1+n)^m mod n^{s+1} via the binomial expansion
// (1+n)^m = Σ_{k=0}^{s} C(m,k)·n^k mod n^{s+1}, which is much faster than
// modular exponentiation because all higher terms vanish. The returned
// value is always fresh; loop temporaries come from the scratch pool.
func (pk *PublicKey) powOnePlusN(m *big.Int) *big.Int {
	out := big.NewInt(1)
	if m.Sign() == 0 {
		return out
	}
	if pk.S == 1 {
		// Paillier (s=1, the default degree): the expansion collapses to
		// 1 + m·n mod n², one pooled product instead of the general
		// binomial loop with its factorial inverses.
		term := getInt()
		term.Mul(m, pk.N)
		term.Add(term, one)
		out.Mod(term, pk.ns1)
		putInt(term)
		return out
	}
	// term_k = C(m,k)·n^k mod n^{s+1}, computed incrementally:
	// C(m,k) = C(m,k-1)·(m-k+1)/k.
	num := getInt().SetInt64(1)  // running product m(m-1)...(m-k+1)
	nk := getInt().SetInt64(1)   // n^k
	fact := getInt().SetInt64(1) // k!
	tmp := getInt()
	term := getInt()
	invFact := getInt()
	for k := 1; k <= pk.S; k++ {
		tmp.SetInt64(int64(k - 1))
		tmp.Sub(m, tmp)
		num.Mul(num, tmp)
		num.Mod(num, pk.ns1)
		nk.Mul(nk, pk.N)
		fact.MulRange(1, int64(k))
		if invFact.ModInverse(fact, pk.ns1) == nil {
			// Unreachable for k ≤ s < the prime factors of n; guarded so
			// a misuse cannot silently corrupt the expansion.
			panic("damgardjurik: k! not invertible mod n^{s+1}")
		}
		term.Mul(num, invFact)
		term.Mod(term, pk.ns1)
		term.Mul(term, nk)
		term.Mod(term, pk.ns1)
		out.Add(out, term)
		out.Mod(out, pk.ns1)
	}
	putInt(num)
	putInt(nk)
	putInt(fact)
	putInt(tmp)
	putInt(term)
	putInt(invFact)
	return out
}

// dLog recovers i from a = (1+n)^i mod n^{s+1}, 0 <= i < n^s, using the
// recursive extraction algorithm of Damgård–Jurik (proof of Theorem 1).
func (pk *PublicKey) dLog(a *big.Int) (*big.Int, error) {
	n := pk.N
	i := new(big.Int)
	njs := make([]*big.Int, pk.S+2) // njs[j] = n^j
	njs[0] = big.NewInt(1)
	for j := 1; j <= pk.S+1; j++ {
		njs[j] = new(big.Int).Mul(njs[j-1], n)
	}
	// Precompute inverse factorials mod n^s (valid mod any n^j, j<=s).
	invFact := make([]*big.Int, pk.S+1)
	fact := big.NewInt(1)
	for k := 2; k <= pk.S; k++ {
		fact.Mul(fact, big.NewInt(int64(k)))
		inv := new(big.Int).ModInverse(fact, pk.ns)
		if inv == nil {
			return nil, fmt.Errorf("damgardjurik: %d! not invertible mod n^s", k)
		}
		invFact[k] = inv
	}
	t1 := new(big.Int)
	t2 := new(big.Int)
	tmp := new(big.Int)
	for j := 1; j <= pk.S; j++ {
		// t1 = L(a mod n^{j+1}) = ((a mod n^{j+1}) - 1)/n
		t1.Mod(a, njs[j+1])
		t1.Sub(t1, one)
		if new(big.Int).Mod(t1, n).Sign() != 0 {
			return nil, fmt.Errorf("%w: not a power of (1+n)", ErrInvalidCiphertext)
		}
		t1.Div(t1, n)
		t2.Set(i)
		for k := 2; k <= j; k++ {
			i.Sub(i, one)
			t2.Mul(t2, i)
			t2.Mod(t2, njs[j])
			// t1 -= t2 * n^{k-1} / k!   (mod n^j)
			tmp.Mul(t2, njs[k-1])
			tmp.Mod(tmp, njs[j])
			tmp.Mul(tmp, invFact[k])
			tmp.Mod(tmp, njs[j])
			t1.Sub(t1, tmp)
			t1.Mod(t1, njs[j])
		}
		i.Set(t1)
	}
	return i, nil
}

// pow computes base^exp for small non-negative integer exponents.
func pow(base *big.Int, exp int) *big.Int {
	out := big.NewInt(1)
	for i := 0; i < exp; i++ {
		out.Mul(out, base)
	}
	return out
}
