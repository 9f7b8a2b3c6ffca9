package damgardjurik

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// PrivateKey is the non-threshold (single-holder) secret key. Chiaroscuro
// itself uses the threshold variant (threshold.go); the single-holder key
// is used by tests, microbenchmarks and the cost-calibration harness.
type PrivateKey struct {
	PublicKey
	P, Q *big.Int

	d   *big.Int    // combined exponent: d ≡ 1 mod n^s, d ≡ 0 mod λ(n)
	crt *crtContext // fast half-modulus exponentiation (crt.go)
}

// GenerateKey creates a fresh key pair with a modulus of the given bit
// length and degree s. bits must be at least 16 (tiny keys are only
// meaningful in tests); real deployments should use >= 2048.
func GenerateKey(rnd io.Reader, bits, s int) (*PrivateKey, error) {
	if rnd == nil {
		rnd = rand.Reader
	}
	if bits < 16 {
		return nil, fmt.Errorf("%w: modulus of %d bits is too small", ErrKeyGeneration, bits)
	}
	for attempt := 0; attempt < 64; attempt++ {
		p, err := rand.Prime(rnd, bits/2)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrKeyGeneration, err)
		}
		q, err := rand.Prime(rnd, bits-bits/2)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrKeyGeneration, err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		sk, err := NewPrivateKeyFromPrimes(p, q, s)
		if err != nil {
			continue // e.g. gcd(n, λ) != 1 for pathological primes
		}
		return sk, nil
	}
	return nil, fmt.Errorf("%w: no suitable primes after 64 attempts", ErrKeyGeneration)
}

// NewPrivateKeyFromPrimes assembles a key from the two primes. It is the
// deterministic entry point used by tests and fixtures.
func NewPrivateKeyFromPrimes(p, q *big.Int, s int) (*PrivateKey, error) {
	if p == nil || q == nil || !p.ProbablyPrime(20) || !q.ProbablyPrime(20) {
		return nil, fmt.Errorf("%w: arguments are not prime", ErrKeyGeneration)
	}
	if p.Cmp(q) == 0 {
		return nil, fmt.Errorf("%w: p == q", ErrKeyGeneration)
	}
	n := new(big.Int).Mul(p, q)
	pk, err := newPublicKey(n, s)
	if err != nil {
		return nil, err
	}
	pm1 := new(big.Int).Sub(p, one)
	qm1 := new(big.Int).Sub(q, one)
	lambda := lcm(pm1, qm1)
	if new(big.Int).GCD(nil, nil, n, lambda).Cmp(one) != 0 {
		return nil, fmt.Errorf("%w: gcd(n, λ) != 1", ErrKeyGeneration)
	}
	// d ≡ 1 mod n^s and d ≡ 0 mod λ: d = λ·(λ^{-1} mod n^s).
	invLambda := new(big.Int).ModInverse(lambda, pk.ns)
	if invLambda == nil {
		return nil, fmt.Errorf("%w: λ not invertible mod n^s", ErrKeyGeneration)
	}
	d := new(big.Int).Mul(lambda, invLambda)
	sk := &PrivateKey{PublicKey: *pk, P: new(big.Int).Set(p), Q: new(big.Int).Set(q), d: d}
	if crt, err := newCRTContext(p, q, s); err == nil {
		sk.crt = crt
	}
	return sk, nil
}

// Decrypt recovers the plaintext of c: computes c^d = (1+n)^m mod n^{s+1}
// and extracts m with the discrete-log algorithm. The exponentiation
// runs through the CRT fast path (crt.go) — bit-identical to, and ~4×
// faster than, DecryptNaive.
func (sk *PrivateKey) Decrypt(c *big.Int) (*big.Int, error) {
	if sk.crt == nil {
		return sk.DecryptNaive(c)
	}
	if err := sk.CheckCiphertext(c); err != nil {
		return nil, err
	}
	return sk.dLog(sk.crt.exp(c, sk.d))
}

// DecryptNaive is the retained reference implementation of Decrypt: one
// full-width exponentiation modulo n^{s+1}. Benchmark baseline and
// bit-identity oracle for the CRT route.
func (sk *PrivateKey) DecryptNaive(c *big.Int) (*big.Int, error) {
	if err := sk.CheckCiphertext(c); err != nil {
		return nil, err
	}
	a := new(big.Int).Exp(c, sk.d, sk.ns1)
	m, err := sk.dLog(a)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Validate performs internal consistency checks (used by tests and when
// loading fixture keys).
func (sk *PrivateKey) Validate() error {
	if new(big.Int).Mul(sk.P, sk.Q).Cmp(sk.N) != 0 {
		return errors.New("damgardjurik: n != p·q")
	}
	if sk.d == nil || sk.d.Sign() <= 0 {
		return errors.New("damgardjurik: missing decryption exponent")
	}
	if new(big.Int).Mod(sk.d, sk.ns).Cmp(one) != 0 {
		return errors.New("damgardjurik: d != 1 mod n^s")
	}
	return nil
}

func lcm(a, b *big.Int) *big.Int {
	g := new(big.Int).GCD(nil, nil, a, b)
	out := new(big.Int).Div(a, g)
	return out.Mul(out, b)
}
