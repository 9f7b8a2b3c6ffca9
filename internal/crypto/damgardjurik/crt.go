package damgardjurik

import (
	"errors"
	"math/big"
)

// crtContext accelerates exponentiations modulo n^{s+1} for holders of
// the factorization n = p·q: the single-holder PrivateKey. A threshold
// share holder never has the primes, so ThresholdKey carries no context;
// the dealer's CRT route survives only as the tests' bit-identity oracle
// for partial decryption. Two classic savings compose:
//
//  1. work modulo the half-size prime powers p^{s+1} and q^{s+1}
//     separately and recombine by Garner's CRT formula — modular
//     multiplication being superlinear in operand size, two half-size
//     exponentiations beat one full-size one by ~3–4×;
//  2. reduce the exponent modulo the group exponent λ(p^{s+1}) =
//     p^s·(p−1) (valid whenever the base is a unit mod p, i.e. always
//     for well-formed ciphertexts) — threshold exponents 2Δ·s_i are
//     ~|n^s·m'| bits, roughly (s+1)·|n| wide, so the reduction alone
//     halves the work again.
//
// The result is bit-identical to the direct computation (verified by
// TestCRTExpMatchesNaive); only the route differs.
//
// SECURITY: a crtContext embeds the factorization. It must never travel
// to a share holder; see docs/CRYPTO.md ("dealer-side state").
type crtContext struct {
	p, q     *big.Int // the primes
	pS1, qS1 *big.Int // p^{s+1}, q^{s+1}
	lamP     *big.Int // λ(p^{s+1}) = p^s·(p−1)
	lamQ     *big.Int // λ(q^{s+1}) = q^s·(q−1)
	qS1Inv   *big.Int // (q^{s+1})^{-1} mod p^{s+1}, for Garner recombination
}

// newCRTContext derives the context for degree s from the primes.
func newCRTContext(p, q *big.Int, s int) (*crtContext, error) {
	if p == nil || q == nil || p.Cmp(q) == 0 {
		return nil, errors.New("damgardjurik: crt needs two distinct primes")
	}
	c := &crtContext{
		p:   new(big.Int).Set(p),
		q:   new(big.Int).Set(q),
		pS1: pow(p, s+1),
		qS1: pow(q, s+1),
	}
	pm1 := new(big.Int).Sub(p, one)
	qm1 := new(big.Int).Sub(q, one)
	c.lamP = new(big.Int).Mul(pow(p, s), pm1)
	c.lamQ = new(big.Int).Mul(pow(q, s), qm1)
	c.qS1Inv = new(big.Int).ModInverse(c.qS1, c.pS1)
	if c.qS1Inv == nil {
		return nil, errors.New("damgardjurik: q^{s+1} not invertible mod p^{s+1}")
	}
	return c, nil
}

// exp computes base^e mod n^{s+1} (e >= 0) through the CRT split.
func (c *crtContext) exp(base, e *big.Int) *big.Int {
	xp := c.halfExp(base, e, c.pS1, c.p, c.lamP)
	xq := c.halfExp(base, e, c.qS1, c.q, c.lamQ)
	// Garner: x = xq + q^{s+1} · ((xp − xq) · (q^{s+1})^{-1} mod p^{s+1}).
	t := new(big.Int).Sub(xp, xq)
	t.Mul(t, c.qS1Inv)
	t.Mod(t, c.pS1)
	t.Mul(t, c.qS1)
	return t.Add(t, xq)
}

// halfExp computes base^e mod prime^{s+1}, reducing the exponent by the
// group order when the base is a unit there (always, except for the
// negligible-probability ciphertexts sharing a factor with n).
func (c *crtContext) halfExp(base, e, primeS1, prime, lambda *big.Int) *big.Int {
	b := new(big.Int).Mod(base, primeS1)
	ee := e
	if new(big.Int).Mod(b, prime).Sign() != 0 {
		ee = new(big.Int).Mod(e, lambda)
	}
	return b.Exp(b, ee, primeS1)
}
