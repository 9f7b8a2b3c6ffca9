package damgardjurik

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"
)

// crossCheckBits are the fixture sizes the fast-vs-naive cross-checks
// run at (ISSUE 2 acceptance: 64/256/1024).
var crossCheckBits = []int{64, 256, 1024}

func TestFixedBaseTableMatchesExp(t *testing.T) {
	sk := testKey(t, 128, 2)
	mod := sk.CiphertextModulus()
	rng := mrand.New(mrand.NewSource(29))
	base := new(big.Int).Rand(rng, mod)
	table := newFixedBaseTable(base, mod, 200)
	for i := 0; i < 50; i++ {
		bits := rng.Intn(200) + 1
		e := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
		want := new(big.Int).Exp(base, e, mod)
		if got := table.expInto(new(big.Int), e); got.Cmp(want) != 0 {
			t.Fatalf("table.expInto(%v) = %v, want %v", e, got, want)
		}
	}
	// Oversized exponents fall back to big.Int.Exp.
	e := new(big.Int).Lsh(big.NewInt(3), 300)
	want := new(big.Int).Exp(base, e, mod)
	if got := table.expInto(new(big.Int), e); got.Cmp(want) != 0 {
		t.Fatal("oversized-exponent fallback mismatch")
	}
	// Zero exponent.
	if got := table.expInto(new(big.Int), new(big.Int)); got.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("table.expInto(0) = %v, want 1", got)
	}
	if table.expInto(new(big.Int), big.NewInt(-1)) != nil {
		t.Fatal("negative exponent should return nil")
	}
}

func TestMultiExpMatchesSequentialProduct(t *testing.T) {
	sk := testKey(t, 128, 1)
	mod := sk.CiphertextModulus()
	rng := mrand.New(mrand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		k := rng.Intn(6) + 1
		bases := make([]*big.Int, k)
		exps := make([]*big.Int, k)
		want := big.NewInt(1)
		for i := 0; i < k; i++ {
			bases[i] = new(big.Int).Rand(rng, mod)
			exps[i] = new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(rng.Intn(120))))
			term := new(big.Int).Exp(bases[i], exps[i], mod)
			want.Mul(want, term)
			want.Mod(want, mod)
		}
		if got := multiExp(bases, exps, mod); got.Cmp(want) != 0 {
			t.Fatalf("trial %d: multiExp mismatch", trial)
		}
	}
	if got := multiExp(nil, nil, mod); got.Cmp(big.NewInt(1)) != 0 {
		t.Fatal("empty multiExp should be 1")
	}
}

func TestCRTExpMatchesNaive(t *testing.T) {
	for _, s := range []int{1, 2, 3} {
		sk := testKey(t, 96, s)
		crt := sk.crt
		if crt == nil {
			t.Fatalf("s=%d: private key from primes should carry a CRT context", s)
		}
		mod := sk.CiphertextModulus()
		rng := mrand.New(mrand.NewSource(int64(37 + s)))
		for i := 0; i < 15; i++ {
			base := new(big.Int).Rand(rng, mod)
			e := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 300))
			want := new(big.Int).Exp(base, e, mod)
			if got := crt.exp(base, e); got.Cmp(want) != 0 {
				t.Fatalf("s=%d: crt.exp mismatch at trial %d", s, i)
			}
		}
		// Non-unit base (multiple of p): exponent reduction must not apply.
		base := new(big.Int).Set(sk.P)
		e := big.NewInt(12345)
		want := new(big.Int).Exp(base, e, mod)
		if got := crt.exp(base, e); got.Cmp(want) != 0 {
			t.Fatalf("s=%d: crt.exp non-unit base mismatch", s)
		}
	}
}

// dealerPartial is the dealer's CRT route to share's partial decryption
// of c under the fixture key of the given size, kept as the bit-identity
// oracle of ThresholdKey.PartialDecrypt: only a dealer holds the primes
// the split needs, so no share holder can take it.
func dealerPartial(t *testing.T, tk *ThresholdKey, bits, s int, share KeyShare, c *big.Int) *big.Int {
	t.Helper()
	p, q, err := FixturePrimes(bits)
	if err != nil {
		t.Fatal(err)
	}
	crt, err := newCRTContext(p, q, s)
	if err != nil {
		t.Fatal(err)
	}
	e := new(big.Int).Mul(two, tk.delta)
	e.Mul(e, share.Value)
	return crt.exp(c, e)
}

// TestPartialDecryptCRTBitIdentical pins the acceptance contract: the
// share holder's route must produce exactly the bytes of the dealer's
// CRT route, at every cross-check key size.
func TestPartialDecryptCRTBitIdentical(t *testing.T) {
	for _, bits := range crossCheckBits {
		tk, shares := testThresholdKey(t, bits, 1, 5, 3)
		c, err := tk.Encrypt(rand.Reader, big.NewInt(987654))
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range shares {
			got, err := tk.PartialDecrypt(sh, c)
			if err != nil {
				t.Fatal(err)
			}
			if got.Value.Cmp(dealerPartial(t, tk, bits, 1, sh, c)) != 0 || got.Index != sh.Index {
				t.Fatalf("%d bits, share %d: partial != the dealer's CRT partial", bits, sh.Index)
			}
		}
	}
}

// TestCombineBatchedBitIdentical: the multi-exponentiation Combine must
// agree bit-for-bit with CombineNaive on every quorum subset.
func TestCombineBatchedBitIdentical(t *testing.T) {
	for _, bits := range crossCheckBits {
		tk, shares := testThresholdKey(t, bits, 1, 5, 3)
		m := big.NewInt(13371337)
		c, _ := tk.Encrypt(rand.Reader, m)
		for _, subset := range [][]int{{1, 2, 3}, {3, 4, 5}, {1, 3, 5}} {
			parts := make([]PartialDecryption, len(subset))
			for i, id := range subset {
				pd, err := tk.PartialDecrypt(shares[id-1], c)
				if err != nil {
					t.Fatal(err)
				}
				parts[i] = pd
			}
			fast, err := tk.Combine(parts)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := tk.CombineNaive(parts)
			if err != nil {
				t.Fatal(err)
			}
			if fast.Cmp(naive) != 0 {
				t.Fatalf("%d bits, subset %v: batched combine %v != naive %v", bits, subset, fast, naive)
			}
			if fast.Cmp(m) != 0 {
				t.Fatalf("%d bits, subset %v: combine = %v, want %v", bits, subset, fast, m)
			}
		}
	}
}

// TestFastEncryptDecryptsIdentically: the fixed-base short-exponent
// encryption is randomized, so the contract is decrypt-identity — every
// fast ciphertext must open to the same plaintext as a naive one.
func TestFastEncryptDecryptsIdentically(t *testing.T) {
	for _, bits := range crossCheckBits {
		tk, shares := testThresholdKey(t, bits, 1, 5, 3)
		ec, err := tk.NewEncContext(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		pool := NewRandomizerPool(ec, 1)
		rng := mrand.New(mrand.NewSource(int64(41 + bits)))
		for i := 0; i < 5; i++ {
			m := new(big.Int).Rand(rng, tk.PlaintextModulus())
			fastCT, err := pool.Encrypt(m)
			if err != nil {
				t.Fatal(err)
			}
			naiveCT, err := tk.Encrypt(rand.Reader, m)
			if err != nil {
				t.Fatal(err)
			}
			if fastCT.Cmp(naiveCT) == 0 {
				t.Fatalf("%d bits: fast and naive ciphertexts coincide (randomness broken)", bits)
			}
			for _, ct := range []*big.Int{fastCT, naiveCT} {
				if got := decryptWith(t, tk, shares, ct, []int{1, 2, 3}); got.Cmp(m) != 0 {
					t.Fatalf("%d bits: decrypt = %v, want %v", bits, got, m)
				}
			}
			// Fast ciphertexts stay homomorphically compatible with naive
			// ones: E_fast(m) · E_naive(m) = E(2m).
			sum, err := tk.Add(fastCT, naiveCT)
			if err != nil {
				t.Fatal(err)
			}
			want := new(big.Int).Lsh(m, 1)
			want.Mod(want, tk.PlaintextModulus())
			if got := decryptWith(t, tk, shares, sum, []int{2, 4, 5}); got.Cmp(want) != 0 {
				t.Fatalf("%d bits: mixed-path sum = %v, want %v", bits, got, want)
			}
		}
	}
}

func TestFastEncryptIsRandomized(t *testing.T) {
	tk, _ := testThresholdKey(t, 128, 1, 3, 2)
	ec, err := tk.NewEncContext(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewRandomizerPool(ec, 1)
	m := big.NewInt(42)
	c1, _ := pool.Encrypt(m)
	c2, _ := pool.Encrypt(m)
	if c1.Cmp(c2) == 0 {
		t.Fatal("two fast encryptions of the same plaintext must differ")
	}
}

func TestEncContextRerandomizePreservesPlaintext(t *testing.T) {
	tk, shares := testThresholdKey(t, 128, 1, 3, 2)
	ec, err := tk.NewEncContext(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	m := big.NewInt(5150)
	c, _ := tk.Encrypt(rand.Reader, m)
	r, err := NewRandomizerPool(ec, 1).Rerandomize(c)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cmp(c) == 0 {
		t.Fatal("rerandomize must change the ciphertext")
	}
	if got := decryptWith(t, tk, shares, r, []int{1, 2}); got.Cmp(m) != 0 {
		t.Fatalf("rerandomized decrypt = %v, want %v", got, m)
	}
}

func TestRandomizerPool(t *testing.T) {
	tk, shares := testThresholdKey(t, 128, 1, 3, 2)
	ec, err := tk.NewEncContext(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewRandomizerPool(ec, 8)
	defer pool.Close()
	pool.Provision(16)

	m := big.NewInt(2025)
	c, _ := tk.Encrypt(rand.Reader, m)
	seen := map[string]bool{}
	for i := 0; i < 32; i++ {
		r, err := pool.Rerandomize(c)
		if err != nil {
			t.Fatal(err)
		}
		if seen[r.String()] {
			t.Fatal("pooled rerandomization repeated a ciphertext")
		}
		seen[r.String()] = true
		if got := decryptWith(t, tk, shares, r, []int{1, 3}); got.Cmp(m) != 0 {
			t.Fatalf("pooled rerandomize decrypt = %v, want %v", got, m)
		}
	}
	ct, err := pool.Encrypt(m)
	if err != nil {
		t.Fatal(err)
	}
	if got := decryptWith(t, tk, shares, ct, []int{2, 3}); got.Cmp(m) != 0 {
		t.Fatalf("pooled encrypt decrypt = %v, want %v", got, m)
	}
	// Close is idempotent and leaves the pool usable (synchronously).
	pool.Close()
	if minted, misses := pool.Stats(); minted != 33 || misses != 17 {
		t.Fatalf("stats: minted %d, misses %d; want 33 draws, 17 past a provision of 16", minted, misses)
	}
	pool.Close()
	if _, err := pool.Rerandomize(c); err != nil {
		t.Fatalf("post-close rerandomize: %v", err)
	}
}

func TestDecryptCRTBitIdentical(t *testing.T) {
	for _, bits := range crossCheckBits {
		for _, s := range []int{1, 2} {
			if bits == 1024 && s == 2 {
				continue // s=2 at 1024 bits is slow; covered at 64/256
			}
			sk := testKey(t, bits, s)
			rng := mrand.New(mrand.NewSource(int64(43*bits + s)))
			for i := 0; i < 3; i++ {
				m := new(big.Int).Rand(rng, sk.PlaintextModulus())
				c, err := sk.Encrypt(rand.Reader, m)
				if err != nil {
					t.Fatal(err)
				}
				fast, err := sk.Decrypt(c)
				if err != nil {
					t.Fatal(err)
				}
				naive, err := sk.DecryptNaive(c)
				if err != nil {
					t.Fatal(err)
				}
				if fast.Cmp(naive) != 0 || fast.Cmp(m) != 0 {
					t.Fatalf("bits=%d s=%d: fast %v naive %v want %v", bits, s, fast, naive, m)
				}
			}
		}
	}
}

// TestFastPathsDegreeS2Threshold exercises the whole fast stack at
// degree s=2: table encryption, partials against the dealer's CRT
// route, batched combine.
func TestFastPathsDegreeS2Threshold(t *testing.T) {
	tk, shares := testThresholdKey(t, 96, 2, 4, 3)
	ec, err := tk.NewEncContext(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewRandomizerPool(ec, 1)
	ns := tk.PlaintextModulus()
	rng := mrand.New(mrand.NewSource(47))
	for i := 0; i < 8; i++ {
		m := new(big.Int).Rand(rng, ns)
		c, err := pool.Encrypt(m)
		if err != nil {
			t.Fatal(err)
		}
		parts := make([]PartialDecryption, 3)
		for j, id := range []int{1, 2, 4} {
			part, err := tk.PartialDecrypt(shares[id-1], c)
			if err != nil {
				t.Fatal(err)
			}
			if part.Value.Cmp(dealerPartial(t, tk, 96, 2, shares[id-1], c)) != 0 {
				t.Fatalf("s=2: partial diverges from the dealer's CRT partial at share %d", id)
			}
			parts[j] = part
		}
		got, err := tk.Combine(parts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(m) != 0 {
			t.Fatalf("s=2 fast stack: decrypt = %v, want %v", got, m)
		}
	}
}

// TestThresholdQuorumBoundaries covers the exact-quorum and
// below-quorum edges on the fast paths: w = l (every share needed),
// exactly w partials, and w−1 partials failing.
func TestThresholdQuorumBoundaries(t *testing.T) {
	tk, shares := testThresholdKey(t, 256, 1, 4, 4)
	m := big.NewInt(7777)
	c, _ := tk.Encrypt(rand.Reader, m)
	parts := make([]PartialDecryption, 4)
	for i := range shares {
		pd, err := tk.PartialDecrypt(shares[i], c)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = pd
	}
	got, err := tk.Combine(parts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(m) != 0 {
		t.Fatalf("full-quorum fast combine = %v, want %v", got, m)
	}
	for _, combine := range []func([]PartialDecryption) (*big.Int, error){tk.Combine, tk.CombineNaive} {
		if _, err := combine(parts[:3]); err == nil {
			t.Fatal("w-1 partials must not decrypt")
		}
	}
}

// TestLagrangeCacheConsistency: memoized coefficients must equal fresh
// ones for interleaved subsets.
func TestLagrangeCacheConsistency(t *testing.T) {
	tk, _ := testThresholdKey(t, 128, 1, 6, 3)
	subsets := [][]int{{1, 2, 3}, {2, 4, 6}, {1, 2, 3}, {2, 4, 6}}
	for _, sub := range subsets {
		lams, err := tk.lagrangeFor(sub)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sub {
			want, err := lagrangeAtZero(tk.delta, sub, i)
			if err != nil {
				t.Fatal(err)
			}
			if lams[i].Cmp(want) != 0 {
				t.Fatalf("subset %v, i=%d: cached %v != fresh %v", sub, i, lams[i], want)
			}
		}
	}
}
