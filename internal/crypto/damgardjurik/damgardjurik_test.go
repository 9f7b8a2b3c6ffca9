package damgardjurik

import (
	"crypto/rand"
	"errors"
	"math/big"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

// testKey returns a small fixture-backed key for fast tests.
func testKey(t *testing.T, bits, s int) *PrivateKey {
	t.Helper()
	sk, err := FixturePrivateKey(bits, s)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

func TestGenerateKeyRoundTrip(t *testing.T) {
	sk, err := GenerateKey(rand.Reader, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sk.Validate(); err != nil {
		t.Fatal(err)
	}
	m := big.NewInt(424242)
	c, err := sk.Encrypt(rand.Reader, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.Decrypt(c)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(m) != 0 {
		t.Fatalf("decrypt = %v, want %v", got, m)
	}
}

func TestGenerateKeyRejectsTinyModulus(t *testing.T) {
	if _, err := GenerateKey(rand.Reader, 8, 1); !errors.Is(err, ErrKeyGeneration) {
		t.Fatalf("err = %v", err)
	}
}

func TestRoundTripAllDegrees(t *testing.T) {
	for _, s := range []int{1, 2, 3} {
		sk := testKey(t, 128, s)
		ns := sk.PlaintextModulus()
		for _, m := range []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			big.NewInt(987654321),
			new(big.Int).Sub(ns, big.NewInt(1)), // max plaintext
		} {
			c, err := sk.Encrypt(rand.Reader, m)
			if err != nil {
				t.Fatalf("s=%d: %v", s, err)
			}
			got, err := sk.Decrypt(c)
			if err != nil {
				t.Fatalf("s=%d: %v", s, err)
			}
			if got.Cmp(m) != 0 {
				t.Fatalf("s=%d: decrypt = %v, want %v", s, got, m)
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	sk := testKey(t, 128, 2)
	ns := sk.PlaintextModulus()
	rng := mrand.New(mrand.NewSource(11))
	f := func() bool {
		m := new(big.Int).Rand(rng, ns)
		c, err := sk.Encrypt(rand.Reader, m)
		if err != nil {
			return false
		}
		got, err := sk.Decrypt(c)
		return err == nil && got.Cmp(m) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHomomorphicAddition(t *testing.T) {
	sk := testKey(t, 128, 1)
	pk := &sk.PublicKey
	a, b := big.NewInt(123456), big.NewInt(654321)
	ca, _ := pk.Encrypt(rand.Reader, a)
	cb, _ := pk.Encrypt(rand.Reader, b)
	sum, err := pk.Add(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.Decrypt(sum)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != 777777 {
		t.Fatalf("E(a)·E(b) decrypts to %v", got)
	}
}

func TestHomomorphicAdditionWrapsModNs(t *testing.T) {
	sk := testKey(t, 64, 1)
	pk := &sk.PublicKey
	ns := pk.PlaintextModulus()
	a := new(big.Int).Sub(ns, big.NewInt(1))
	ca, _ := pk.Encrypt(rand.Reader, a)
	cb, _ := pk.Encrypt(rand.Reader, big.NewInt(5))
	sum, _ := pk.Add(ca, cb)
	got, err := sk.Decrypt(sum)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != 4 {
		t.Fatalf("(n^s - 1) + 5 mod n^s = %v, want 4", got)
	}
}

func TestHomomorphicScalarMul(t *testing.T) {
	sk := testKey(t, 128, 1)
	pk := &sk.PublicKey
	c, _ := pk.Encrypt(rand.Reader, big.NewInt(1111))
	for _, k := range []int64{0, 1, 2, 77} {
		ck, err := pk.ScalarMul(c, big.NewInt(k))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.Decrypt(ck)
		if err != nil {
			t.Fatal(err)
		}
		if got.Int64() != 1111*k {
			t.Fatalf("E(m)^%d decrypts to %v", k, got)
		}
	}
}

func TestHomomorphicScalarMulNegative(t *testing.T) {
	sk := testKey(t, 128, 1)
	pk := &sk.PublicKey
	ns := pk.PlaintextModulus()
	c, _ := pk.Encrypt(rand.Reader, big.NewInt(10))
	ck, err := pk.ScalarMul(c, big.NewInt(-3))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.Decrypt(ck)
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Sub(ns, big.NewInt(30))
	if got.Cmp(want) != 0 {
		t.Fatalf("E(10)^-3 decrypts to %v, want n^s - 30", got)
	}
}

func TestHomomorphicSub(t *testing.T) {
	sk := testKey(t, 128, 1)
	pk := &sk.PublicKey
	ca, _ := pk.Encrypt(rand.Reader, big.NewInt(500))
	cb, _ := pk.Encrypt(rand.Reader, big.NewInt(123))
	diff, err := pk.Sub(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.Decrypt(diff)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != 377 {
		t.Fatalf("sub = %v", got)
	}
}

func TestHomomorphicLawsProperty(t *testing.T) {
	// E(a)·E(b) ~ E(a+b) and E(a)^k ~ E(ka), over random inputs, s=2.
	sk := testKey(t, 96, 2)
	pk := &sk.PublicKey
	ns := pk.PlaintextModulus()
	rng := mrand.New(mrand.NewSource(13))
	for i := 0; i < 25; i++ {
		a := new(big.Int).Rand(rng, ns)
		b := new(big.Int).Rand(rng, ns)
		k := new(big.Int).Rand(rng, big.NewInt(1<<30))
		ca, _ := pk.Encrypt(rand.Reader, a)
		cb, _ := pk.Encrypt(rand.Reader, b)
		sum, _ := pk.Add(ca, cb)
		wantSum := new(big.Int).Add(a, b)
		wantSum.Mod(wantSum, ns)
		if got, _ := sk.Decrypt(sum); got.Cmp(wantSum) != 0 {
			t.Fatalf("add law failed: %v != %v", got, wantSum)
		}
		ck, _ := pk.ScalarMul(ca, k)
		wantK := new(big.Int).Mul(a, k)
		wantK.Mod(wantK, ns)
		if got, _ := sk.Decrypt(ck); got.Cmp(wantK) != 0 {
			t.Fatalf("scalar law failed: %v != %v", got, wantK)
		}
	}
}

func TestEncryptIsRandomized(t *testing.T) {
	sk := testKey(t, 128, 1)
	pk := &sk.PublicKey
	m := big.NewInt(42)
	c1, _ := pk.Encrypt(rand.Reader, m)
	c2, _ := pk.Encrypt(rand.Reader, m)
	if c1.Cmp(c2) == 0 {
		t.Fatal("two encryptions of the same plaintext must differ (semantic security)")
	}
}

func TestEncryptWithNonceDeterministic(t *testing.T) {
	sk := testKey(t, 128, 1)
	pk := &sk.PublicKey
	r := big.NewInt(12345)
	c1, err := pk.EncryptWithNonce(big.NewInt(7), r)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := pk.EncryptWithNonce(big.NewInt(7), r)
	if c1.Cmp(c2) != 0 {
		t.Fatal("same nonce must give identical ciphertexts")
	}
}

func TestEncryptWithNonceValidation(t *testing.T) {
	sk := testKey(t, 128, 1)
	pk := &sk.PublicKey
	if _, err := pk.EncryptWithNonce(big.NewInt(1), big.NewInt(0)); err == nil {
		t.Fatal("zero nonce should error")
	}
	if _, err := pk.EncryptWithNonce(big.NewInt(1), pk.N); err == nil {
		t.Fatal("nonce >= n should error")
	}
	if _, err := pk.EncryptWithNonce(nil, big.NewInt(3)); !errors.Is(err, ErrInvalidPlaintext) {
		t.Fatal("nil plaintext should error")
	}
	// Non-unit nonce (multiple of p).
	p, _, _ := FixturePrimes(128)
	if _, err := pk.EncryptWithNonce(big.NewInt(1), p); err == nil {
		t.Fatal("non-unit nonce should error")
	}
}

func TestRerandomizePreservesPlaintext(t *testing.T) {
	sk := testKey(t, 128, 1)
	pk := &sk.PublicKey
	m := big.NewInt(31337)
	c, _ := pk.Encrypt(rand.Reader, m)
	c2, err := pk.Rerandomize(rand.Reader, c)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cmp(c2) == 0 {
		t.Fatal("rerandomize should change the ciphertext")
	}
	got, err := sk.Decrypt(c2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(m) != 0 {
		t.Fatalf("rerandomized decrypt = %v", got)
	}
}

func TestCiphertextValidation(t *testing.T) {
	sk := testKey(t, 128, 1)
	pk := &sk.PublicKey
	bad := []*big.Int{nil, big.NewInt(0), big.NewInt(-5), pk.CiphertextModulus()}
	for _, c := range bad {
		if _, err := pk.Add(c, c); !errors.Is(err, ErrInvalidCiphertext) {
			t.Fatalf("Add(%v): err = %v", c, err)
		}
		if _, err := pk.ScalarMul(c, big.NewInt(2)); !errors.Is(err, ErrInvalidCiphertext) {
			t.Fatalf("ScalarMul(%v): err = %v", c, err)
		}
		if _, err := sk.Decrypt(c); !errors.Is(err, ErrInvalidCiphertext) {
			t.Fatalf("Decrypt(%v): err = %v", c, err)
		}
	}
}

func TestNegativePlaintextReducedModNs(t *testing.T) {
	sk := testKey(t, 128, 1)
	pk := &sk.PublicKey
	ns := pk.PlaintextModulus()
	c, err := pk.Encrypt(rand.Reader, big.NewInt(-1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.Decrypt(c)
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Sub(ns, big.NewInt(1))
	if got.Cmp(want) != 0 {
		t.Fatalf("E(-1) decrypts to %v, want n^s - 1", got)
	}
}

func TestNewPrivateKeyFromPrimesValidation(t *testing.T) {
	p, q, _ := FixturePrimes(128)
	if _, err := NewPrivateKeyFromPrimes(p, p, 1); !errors.Is(err, ErrKeyGeneration) {
		t.Fatal("p == q should error")
	}
	if _, err := NewPrivateKeyFromPrimes(big.NewInt(100), q, 1); !errors.Is(err, ErrKeyGeneration) {
		t.Fatal("composite p should error")
	}
	if _, err := NewPrivateKeyFromPrimes(p, q, 0); err == nil {
		t.Fatal("s=0 should error")
	}
}

func TestCiphertextBytes(t *testing.T) {
	sk := testKey(t, 128, 1)
	// n^{s+1} for a 128-bit n with s=1 is ~256 bits = 32 bytes.
	if got := sk.CiphertextBytes(); got != 32 {
		t.Fatalf("CiphertextBytes = %d, want 32", got)
	}
	sk3 := testKey(t, 128, 3)
	if got := sk3.CiphertextBytes(); got != 64 {
		t.Fatalf("s=3 CiphertextBytes = %d, want 64", got)
	}
}

func TestPowOnePlusNMatchesExp(t *testing.T) {
	// The binomial shortcut must agree with naive modular exponentiation.
	sk := testKey(t, 96, 2)
	pk := &sk.PublicKey
	onePlusN := new(big.Int).Add(pk.N, big.NewInt(1))
	rng := mrand.New(mrand.NewSource(17))
	for i := 0; i < 20; i++ {
		m := new(big.Int).Rand(rng, pk.PlaintextModulus())
		fast := pk.powOnePlusN(m)
		slow := new(big.Int).Exp(onePlusN, m, pk.CiphertextModulus())
		if fast.Cmp(slow) != 0 {
			t.Fatalf("powOnePlusN(%v) = %v, want %v", m, fast, slow)
		}
	}
}

func TestDLogInverseOfPow(t *testing.T) {
	sk := testKey(t, 96, 3)
	pk := &sk.PublicKey
	rng := mrand.New(mrand.NewSource(19))
	for i := 0; i < 20; i++ {
		m := new(big.Int).Rand(rng, pk.PlaintextModulus())
		a := pk.powOnePlusN(m)
		got, err := pk.dLog(a)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(m) != 0 {
			t.Fatalf("dLog(pow(%v)) = %v", m, got)
		}
	}
}
