package damgardjurik

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sort"
	"strconv"
	"sync"
)

// The threshold variant follows Damgård–Jurik (PKC 2001, Sec. 4.1), which
// adapts Shoup's threshold RSA technique:
//
//   - n = p·q with p = 2p'+1, q = 2q'+1 safe primes, m' = p'·q';
//   - the decryption exponent d satisfies d ≡ 0 mod m' and d ≡ 1 mod n^s;
//   - d is Shamir-shared with a degree-(w-1) polynomial over Z_{n^s·m'};
//     party i (1-based) holds s_i = f(i);
//   - a partial decryption of c by party i is c_i = c^{2Δ·s_i} mod n^{s+1},
//     with Δ = l! (l = number of parties);
//   - any w partials combine to c' = Π c_i^{2·λ_{0,i}} = c^{4Δ²·d} =
//     (1+n)^{4Δ²·m}, from which m is extracted and rescaled by
//     (4Δ²)^{-1} mod n^s.
//
// In Chiaroscuro this is the "collaborative decryption performed by any
// sufficiently large subset of participants" (demo paper, Sec. II.A).

// Threshold-specific errors.
var (
	ErrNotEnoughShares = errors.New("damgardjurik: not enough partial decryptions")
	ErrDuplicateShare  = errors.New("damgardjurik: duplicate partial decryption index")
	ErrShareOutOfRange = errors.New("damgardjurik: share index out of range")
	ErrCombineMismatch = errors.New("damgardjurik: partial decryptions do not combine to a plaintext")
)

// ThresholdKey is the public material of a threshold deployment. Every
// participant holds a copy; it contains no secrets — except that keys
// dealt by NewThresholdKeyFromPrimes additionally carry the dealer-side
// CRT acceleration context (crt.go), which embeds the factorization and
// is deliberately dropped by a key rebuilt from transported public
// parameters.
type ThresholdKey struct {
	PublicKey
	Parties   int // l: total number of key-share holders
	Threshold int // w: partials needed to decrypt

	delta      *big.Int // Δ = l!
	scale      *big.Int // σ: public scale of the shared secret (1 for dealt keys)
	invCombine *big.Int // (4Δ²σ)^{-1} mod n^s

	crt *crtContext // dealer-side fast path; nil on share-holder copies

	lagMu    sync.Mutex
	lagCache map[string][]*big.Int // combine-subset -> Lagrange coefficients

	ctxMu    sync.Mutex
	ctxCache map[string]*CombineCtx // combine-subset -> cached combine plan
	ctxHits  int64
}

// KeyShare is the secret share of one party. Index is 1-based.
//
// Dealt shares are residues in [0, n^s·m'). DKG-derived shares
// (internal/crypto/dkg) are unreduced — and after a reshare possibly
// negative — integers: a share holder without the factorization cannot
// reduce mod n^s·m'. Partial decryption is invariant to shifting a
// share by any multiple of the ciphertext group order, and the exponent
// 2Δ·s_i makes every c^{2Δ·s_i} land in the squares, so both kinds of
// share combine to bit-identical plaintexts.
type KeyShare struct {
	Index int
	Value *big.Int
}

// PartialDecryption is one party's contribution to a decryption.
type PartialDecryption struct {
	Index int
	Value *big.Int
}

// GenerateThresholdKey creates a threshold deployment from scratch:
// safe-prime modulus of the given bit length, degree s, l parties,
// threshold w. Safe-prime search is expensive at large bit sizes; see
// Fixture for pregenerated demo moduli.
func GenerateThresholdKey(rnd io.Reader, bits, s, parties, threshold int) (*ThresholdKey, []KeyShare, error) {
	if rnd == nil {
		rnd = rand.Reader
	}
	if bits < 16 {
		return nil, nil, fmt.Errorf("%w: modulus of %d bits is too small", ErrKeyGeneration, bits)
	}
	for attempt := 0; attempt < 64; attempt++ {
		p, err := SafePrime(rnd, bits/2)
		if err != nil {
			return nil, nil, err
		}
		q, err := SafePrime(rnd, bits-bits/2)
		if err != nil {
			return nil, nil, err
		}
		tk, shares, err := NewThresholdKeyFromPrimes(rnd, p, q, s, parties, threshold)
		if err != nil {
			continue
		}
		return tk, shares, nil
	}
	return nil, nil, fmt.Errorf("%w: no suitable safe primes after 64 attempts", ErrKeyGeneration)
}

// NewThresholdKeyFromPrimes performs the dealer's work for the given safe
// primes: derives d, shares it, and returns the public threshold key plus
// the l secret shares. rnd supplies the polynomial coefficients.
func NewThresholdKeyFromPrimes(rnd io.Reader, p, q *big.Int, s, parties, threshold int) (*ThresholdKey, []KeyShare, error) {
	if rnd == nil {
		rnd = rand.Reader
	}
	if parties < 1 || threshold < 1 || threshold > parties {
		return nil, nil, fmt.Errorf("%w: invalid (parties=%d, threshold=%d)", ErrKeyGeneration, parties, threshold)
	}
	if !isSafePrime(p) || !isSafePrime(q) || p.Cmp(q) == 0 {
		return nil, nil, fmt.Errorf("%w: arguments must be distinct safe primes", ErrKeyGeneration)
	}
	n := new(big.Int).Mul(p, q)
	pk, err := newPublicKey(n, s)
	if err != nil {
		return nil, nil, err
	}
	pPrime := new(big.Int).Rsh(new(big.Int).Sub(p, one), 1)
	qPrime := new(big.Int).Rsh(new(big.Int).Sub(q, one), 1)
	mPrime := new(big.Int).Mul(pPrime, qPrime)
	if new(big.Int).GCD(nil, nil, pk.ns, mPrime).Cmp(one) != 0 {
		return nil, nil, fmt.Errorf("%w: gcd(n^s, m') != 1", ErrKeyGeneration)
	}
	// d ≡ 0 mod m', d ≡ 1 mod n^s: d = m'·(m'^{-1} mod n^s).
	invM := new(big.Int).ModInverse(mPrime, pk.ns)
	if invM == nil {
		return nil, nil, fmt.Errorf("%w: m' not invertible mod n^s", ErrKeyGeneration)
	}
	d := new(big.Int).Mul(mPrime, invM)

	// Shamir-share d over Z_{n^s·m'} with a degree-(w-1) polynomial.
	shareMod := new(big.Int).Mul(pk.ns, mPrime)
	coeffs := make([]*big.Int, threshold)
	coeffs[0] = d
	for i := 1; i < threshold; i++ {
		c, err := rand.Int(rnd, shareMod)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrKeyGeneration, err)
		}
		coeffs[i] = c
	}
	shares := make([]KeyShare, parties)
	x := new(big.Int)
	for i := 1; i <= parties; i++ {
		x.SetInt64(int64(i))
		shares[i-1] = KeyShare{Index: i, Value: evalPoly(coeffs, x, shareMod)}
	}

	tk := &ThresholdKey{
		PublicKey: *pk,
		Parties:   parties,
		Threshold: threshold,
	}
	if crt, err := newCRTContext(p, q, s); err == nil {
		tk.crt = crt
	}
	tk.delta = factorial(parties)
	tk.scale = big.NewInt(1)
	if err := tk.initCombine(); err != nil {
		return nil, nil, err
	}
	return tk, shares, nil
}

// NewThresholdKeyPublic rebuilds a share holder's threshold key from
// transported public parameters alone: modulus, degree, deployment
// shape, and the public scale σ of the shared secret. This is the
// constructor the DKG ceremony (internal/crypto/dkg) finishes with —
// no factorization, hence crt == nil and every partial decryption
// takes the naive route.
//
// scale is 1 for a fresh DKG (the dealt constant terms sum to d
// exactly); each reshare multiplies it by the Δ of the deployment
// being reshared, because integer Lagrange recombination of the old
// shares yields Δ_old·d rather than d. The scale is folded into the
// combine rescaling, so decryptions stay bit-identical to a dealer key.
func NewThresholdKeyPublic(n *big.Int, s, parties, threshold int, scale *big.Int) (*ThresholdKey, error) {
	if parties < 1 || threshold < 1 || threshold > parties {
		return nil, fmt.Errorf("%w: invalid (parties=%d, threshold=%d)", ErrKeyGeneration, parties, threshold)
	}
	if scale == nil || scale.Sign() <= 0 {
		return nil, fmt.Errorf("%w: scale must be a positive integer", ErrKeyGeneration)
	}
	pk, err := newPublicKey(n, s)
	if err != nil {
		return nil, err
	}
	tk := &ThresholdKey{
		PublicKey: *pk,
		Parties:   parties,
		Threshold: threshold,
	}
	tk.delta = factorial(parties)
	tk.scale = new(big.Int).Set(scale)
	if err := tk.initCombine(); err != nil {
		return nil, err
	}
	return tk, nil
}

// initCombine derives invCombine = (4Δ²σ)^{-1} mod n^s from the key's
// delta and scale.
func (tk *ThresholdKey) initCombine() error {
	comb := new(big.Int).Mul(tk.delta, tk.delta)
	comb.Mul(comb, big.NewInt(4))
	comb.Mul(comb, tk.scale)
	tk.invCombine = new(big.Int).ModInverse(comb, tk.ns)
	if tk.invCombine == nil {
		return fmt.Errorf("%w: 4Δ²σ not invertible mod n^s", ErrKeyGeneration)
	}
	return nil
}

// PartialDecrypt computes party share.Index's contribution for ciphertext
// c: c^{2Δ·s_i} mod n^{s+1}. Keys dealt from known primes route the
// exponentiation through the CRT fast path (crt.go) — bit-identical to
// the naive route, ~4× faster at 1024-bit moduli; keys rebuilt from
// public parameters fall back to PartialDecryptNaive.
func (tk *ThresholdKey) PartialDecrypt(share KeyShare, c *big.Int) (PartialDecryption, error) {
	if tk.crt == nil {
		return tk.PartialDecryptNaive(share, c)
	}
	if share.Index < 1 || share.Index > tk.Parties {
		return PartialDecryption{}, ErrShareOutOfRange
	}
	if err := tk.CheckCiphertext(c); err != nil {
		return PartialDecryption{}, err
	}
	e := new(big.Int).Mul(two, tk.delta)
	e.Mul(e, share.Value)
	return PartialDecryption{Index: share.Index, Value: tk.crt.exp(c, e)}, nil
}

// PartialDecryptNaive is the retained reference implementation of
// PartialDecrypt: one full-width exponentiation modulo n^{s+1}. It is
// the route share holders without the factorization take, the baseline
// of the fast-path benchmarks, and the oracle of the bit-identity
// property tests.
//
// Negative shares (resharing applies signed Lagrange weights to old
// shares) are handled explicitly — invert c mod n^{s+1}, exponentiate
// by |2Δ·s_i| — rather than through big.Int.Exp's negative-exponent
// path, so the route stays deterministic and mirrors what the CRT path
// would have to do.
func (tk *ThresholdKey) PartialDecryptNaive(share KeyShare, c *big.Int) (PartialDecryption, error) {
	if share.Index < 1 || share.Index > tk.Parties {
		return PartialDecryption{}, ErrShareOutOfRange
	}
	if err := tk.CheckCiphertext(c); err != nil {
		return PartialDecryption{}, err
	}
	e := new(big.Int).Mul(two, tk.delta)
	e.Mul(e, share.Value)
	base := c
	if e.Sign() < 0 {
		base = new(big.Int).ModInverse(c, tk.ns1)
		if base == nil {
			return PartialDecryption{}, fmt.Errorf("%w: not a unit mod n^{s+1}", ErrInvalidCiphertext)
		}
		e.Neg(e)
	}
	v := new(big.Int).Exp(base, e, tk.ns1)
	return PartialDecryption{Index: share.Index, Value: v}, nil
}

// Combine merges at least Threshold distinct partial decryptions of the
// same ciphertext into the plaintext. Extra partials beyond the threshold
// are ignored (the lowest indices are used, for determinism).
//
// This is the batched fast path: the w exponentiations
// Π_i v_i^{2·λ_{0,i}} are fused into one simultaneous multi-
// exponentiation (multiexp.go) that walks a single squaring chain, and
// the integer Lagrange coefficients — which depend only on the index
// subset, not the ciphertext — are cached across calls, because the
// protocol decrypts whole centroid vectors against the same quorum. The
// result is bit-identical to CombineNaive.
func (tk *ThresholdKey) Combine(parts []PartialDecryption) (*big.Int, error) {
	use, err := tk.selectPartials(parts)
	if err != nil {
		return nil, err
	}
	indices := make([]int, len(use))
	for i, p := range use {
		indices[i] = p.Index
	}
	ctx, err := tk.CombineContext(indices)
	if err != nil {
		return nil, err
	}
	return tk.CombineWith(ctx, use)
}

// CombineCtx is the cached, responder-set-keyed half of a Combine: the
// integer Lagrange coefficients, their sign-split multiexp exponents,
// and the precomputed window-digit schedule of the batched
// multi-exponentiation. All of it depends only on the index subset, not
// the ciphertext, so one context serves every ciphertext a quorum opens
// — and, through the key's cache, every participant decrypting against
// the same quorum. A CombineCtx is immutable after construction and
// safe for concurrent use.
type CombineCtx struct {
	indices []int  // ascending distinct share indices, len == Threshold
	invert  []bool // partial i must be inverted mod n^{s+1} (negative λ)
	plan    *multiExpPlan
}

// CombineContext returns the combine plan for the given responder
// subset — exactly Threshold ascending distinct share indices — memoized
// on the key like the Lagrange cache it builds on.
func (tk *ThresholdKey) CombineContext(indices []int) (*CombineCtx, error) {
	if len(indices) != tk.Threshold {
		return nil, fmt.Errorf("%w: have %d indices, need exactly %d", ErrNotEnoughShares, len(indices), tk.Threshold)
	}
	prev := 0
	for _, id := range indices {
		if id < 1 || id > tk.Parties {
			return nil, fmt.Errorf("%w: index %d", ErrShareOutOfRange, id)
		}
		if id <= prev {
			return nil, fmt.Errorf("%w: index %d (indices must be ascending and distinct)", ErrDuplicateShare, id)
		}
		prev = id
	}
	key := make([]byte, 0, 4*len(indices))
	for _, id := range indices {
		key = strconv.AppendInt(key, int64(id), 10)
		key = append(key, ',')
	}
	tk.ctxMu.Lock()
	cached, ok := tk.ctxCache[string(key)]
	if ok {
		tk.ctxHits++
	}
	tk.ctxMu.Unlock()
	if ok {
		return cached, nil
	}
	lams, err := tk.lagrangeFor(indices)
	if err != nil {
		return nil, err
	}
	ctx := &CombineCtx{
		indices: append([]int(nil), indices...),
		invert:  make([]bool, len(indices)),
	}
	exps := make([]*big.Int, len(indices))
	for i, lam := range lams {
		e := new(big.Int).Mul(two, lam)
		if e.Sign() < 0 {
			ctx.invert[i] = true
			e.Neg(e)
		}
		exps[i] = e
	}
	ctx.plan = newMultiExpPlan(exps)
	tk.ctxMu.Lock()
	if tk.ctxCache == nil {
		tk.ctxCache = make(map[string]*CombineCtx)
	}
	tk.ctxCache[string(key)] = ctx
	tk.ctxMu.Unlock()
	return ctx, nil
}

// CombineContextHits reports how many CombineContext lookups were served
// from the cache — the figure behind OpCounts.CombineCtxHits.
func (tk *ThresholdKey) CombineContextHits() int64 {
	tk.ctxMu.Lock()
	defer tk.ctxMu.Unlock()
	return tk.ctxHits
}

// CombineWith opens one ciphertext from partial decryptions aligned with
// ctx: parts[i].Index must equal the context's i-th index. Bit-identical
// to Combine (and CombineNaive) over the same responder subset.
func (tk *ThresholdKey) CombineWith(ctx *CombineCtx, parts []PartialDecryption) (*big.Int, error) {
	if len(parts) != len(ctx.indices) {
		return nil, fmt.Errorf("%w: have %d partials, context wants %d", ErrNotEnoughShares, len(parts), len(ctx.indices))
	}
	bases := make([]*big.Int, len(parts))
	for i, p := range parts {
		if p.Index != ctx.indices[i] {
			return nil, fmt.Errorf("%w: partial %d at position %d, context wants %d", ErrShareOutOfRange, p.Index, i, ctx.indices[i])
		}
		if ctx.invert[i] {
			inv := new(big.Int).ModInverse(p.Value, tk.ns1)
			if inv == nil {
				return nil, fmt.Errorf("%w: partial %d not a unit", ErrCombineMismatch, p.Index)
			}
			bases[i] = inv
		} else {
			bases[i] = p.Value
		}
	}
	acc := ctx.plan.exec(bases, tk.ns1)
	return tk.finishCombine(acc)
}

// CombineNaive is the retained reference implementation of Combine: one
// independent full-width exponentiation per partial, Lagrange
// coefficients recomputed every call. Kept as the benchmark baseline and
// the oracle of the bit-identity property tests.
func (tk *ThresholdKey) CombineNaive(parts []PartialDecryption) (*big.Int, error) {
	use, err := tk.selectPartials(parts)
	if err != nil {
		return nil, err
	}
	// c' = Π_i use[i].Value ^ (2·λ_{0,i}) mod n^{s+1}, with integer
	// Lagrange coefficients λ_{0,i} = Δ·Π_{j≠i} j/(j-i).
	indices := make([]int, len(use))
	for i, p := range use {
		indices[i] = p.Index
	}
	acc := big.NewInt(1)
	for i, p := range use {
		lam, err := lagrangeAtZero(tk.delta, indices, i)
		if err != nil {
			return nil, err
		}
		e := new(big.Int).Mul(two, lam)
		base := p.Value
		if e.Sign() < 0 {
			base = new(big.Int).ModInverse(p.Value, tk.ns1)
			if base == nil {
				return nil, fmt.Errorf("%w: partial %d not a unit", ErrCombineMismatch, p.Index)
			}
			e.Neg(e)
		}
		t := new(big.Int).Exp(base, e, tk.ns1)
		acc.Mul(acc, t)
		acc.Mod(acc, tk.ns1)
	}
	return tk.finishCombine(acc)
}

// selectPartials validates parts and picks the Threshold lowest distinct
// indices (the deterministic subset both Combine variants share).
func (tk *ThresholdKey) selectPartials(parts []PartialDecryption) ([]PartialDecryption, error) {
	if len(parts) < tk.Threshold {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrNotEnoughShares, len(parts), tk.Threshold)
	}
	sorted := make([]PartialDecryption, len(parts))
	copy(sorted, parts)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Index < sorted[b].Index })
	seen := make(map[int]bool, len(sorted))
	use := make([]PartialDecryption, 0, tk.Threshold)
	for _, p := range sorted {
		if p.Index < 1 || p.Index > tk.Parties {
			return nil, fmt.Errorf("%w: index %d", ErrShareOutOfRange, p.Index)
		}
		if seen[p.Index] {
			return nil, fmt.Errorf("%w: index %d", ErrDuplicateShare, p.Index)
		}
		seen[p.Index] = true
		use = append(use, p)
		if len(use) == tk.Threshold {
			break
		}
	}
	if len(use) < tk.Threshold {
		return nil, fmt.Errorf("%w: only %d distinct", ErrNotEnoughShares, len(use))
	}
	return use, nil
}

// finishCombine extracts m from acc = (1+n)^{4Δ²·m} and rescales.
func (tk *ThresholdKey) finishCombine(acc *big.Int) (*big.Int, error) {
	val, err := tk.dLog(acc)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCombineMismatch, err)
	}
	val.Mul(val, tk.invCombine)
	return val.Mod(val, tk.ns), nil
}

// lagrangeFor returns the integer Lagrange coefficients λ_{0,i} for the
// given (ascending, distinct) index subset, memoized per subset.
func (tk *ThresholdKey) lagrangeFor(indices []int) ([]*big.Int, error) {
	key := make([]byte, 0, 4*len(indices))
	for _, id := range indices {
		key = strconv.AppendInt(key, int64(id), 10)
		key = append(key, ',')
	}
	tk.lagMu.Lock()
	cached, ok := tk.lagCache[string(key)]
	tk.lagMu.Unlock()
	if ok {
		return cached, nil
	}
	lams := make([]*big.Int, len(indices))
	for i := range indices {
		lam, err := lagrangeAtZero(tk.delta, indices, i)
		if err != nil {
			return nil, err
		}
		lams[i] = lam
	}
	tk.lagMu.Lock()
	if tk.lagCache == nil {
		tk.lagCache = make(map[string][]*big.Int)
	}
	tk.lagCache[string(key)] = lams
	tk.lagMu.Unlock()
	return lams, nil
}

// Delta returns Δ = parties! (a fresh copy); exposed for diagnostics.
func (tk *ThresholdKey) Delta() *big.Int { return new(big.Int).Set(tk.delta) }

// Scale returns the public scale σ of the shared secret (a fresh
// copy): 1 for dealt and freshly DKG'd keys, multiplied by the old
// deployment's Δ at each reshare.
func (tk *ThresholdKey) Scale() *big.Int { return new(big.Int).Set(tk.scale) }

// lagrangeAtZero computes λ_{0,indices[i]} = Δ·Π_{j≠i} x_j/(x_j - x_i),
// guaranteed integral because Δ = l! absorbs every denominator.
func lagrangeAtZero(delta *big.Int, indices []int, i int) (*big.Int, error) {
	num := new(big.Int).Set(delta)
	den := big.NewInt(1)
	xi := int64(indices[i])
	for j, xj := range indices {
		if j == i {
			continue
		}
		num.Mul(num, big.NewInt(int64(xj)))
		den.Mul(den, big.NewInt(int64(xj)-xi))
	}
	q, r := new(big.Int).QuoRem(num, den, new(big.Int))
	if r.Sign() != 0 {
		return nil, fmt.Errorf("damgardjurik: non-integral Lagrange coefficient for indices %v", indices)
	}
	return q, nil
}

// evalPoly evaluates the polynomial with the given coefficients (constant
// term first) at x, mod m, via Horner's rule.
func evalPoly(coeffs []*big.Int, x, m *big.Int) *big.Int {
	out := new(big.Int)
	for i := len(coeffs) - 1; i >= 0; i-- {
		out.Mul(out, x)
		out.Add(out, coeffs[i])
		out.Mod(out, m)
	}
	return out
}

func factorial(n int) *big.Int {
	return new(big.Int).MulRange(1, int64(n))
}
