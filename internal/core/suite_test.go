package core

import (
	"math/big"
	"testing"
)

func suites(t *testing.T) map[string]CipherSuite {
	t.Helper()
	plain, err := NewPlainSuite(1024, 1, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	dj, err := NewDamgardJurikSuite(128, 1, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]CipherSuite{"plain": plain, "dj": dj}
}

// decryptVia opens a cipher with partials from the given parties.
func decryptVia(t *testing.T, s CipherSuite, c Cipher, parties []int) *big.Int {
	t.Helper()
	parts := make([]Partial, len(parties))
	for i, p := range parties {
		pd, err := s.PartialDecrypt(p, c)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = pd
	}
	m, err := s.Combine(parts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSuitesEncryptDecryptRoundTrip(t *testing.T) {
	for name, s := range suites(t) {
		m := big.NewInt(987654)
		c, err := s.Encrypt(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := decryptVia(t, s, c, []int{1, 3, 5})
		if got.Cmp(m) != 0 {
			t.Fatalf("%s: roundtrip = %v, want %v", name, got, m)
		}
	}
}

func TestSuitesHomomorphicAdd(t *testing.T) {
	for name, s := range suites(t) {
		a, _ := s.Encrypt(big.NewInt(1000))
		b, _ := s.Encrypt(big.NewInt(234))
		sum, err := s.Add(a, b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := decryptVia(t, s, sum, []int{2, 4, 5}); got.Int64() != 1234 {
			t.Fatalf("%s: sum = %v", name, got)
		}
	}
}

// TestSuitesHalveIsExactRingHalf pins the three halving-related
// operations against each other: Double(c, k) multiplies the plaintext
// by 2^k, the eager oracle Halve is its inverse in the ring (even for odd
// plaintexts, where no integer half exists), and Refresh changes nothing
// a decryption can see.
func TestSuitesHalveIsExactRingHalf(t *testing.T) {
	for name, s := range suites(t) {
		for _, v := range []int64{8, 7, 0, 1} {
			c, _ := s.Encrypt(big.NewInt(v))
			h, err := s.Halve(c)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// 2·halve(v) must equal v in the ring.
			doubled, err := s.Double(h, 1)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := decryptVia(t, s, doubled, []int{1, 2, 3}); got.Int64() != v {
				t.Fatalf("%s: 2·halve(%d) = %v", name, v, got)
			}
			for _, k := range []uint{0, 1, 5} {
				d, err := s.Double(c, k)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := decryptVia(t, s, d, []int{2, 3, 4}); got.Int64() != v<<k {
					t.Fatalf("%s: %d·2^%d = %v", name, v, k, got)
				}
			}
			r, err := s.Refresh(c)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := decryptVia(t, s, r, []int{1, 4, 5}); got.Int64() != v {
				t.Fatalf("%s: refresh(%d) decrypts to %v", name, v, got)
			}
		}
	}
}

func TestSuitesThresholdEnforced(t *testing.T) {
	for name, s := range suites(t) {
		c, _ := s.Encrypt(big.NewInt(5))
		p1, _ := s.PartialDecrypt(1, c)
		p2, _ := s.PartialDecrypt(2, c)
		if _, err := s.Combine([]Partial{p1, p2}); err == nil {
			t.Fatalf("%s: 2 partials combined despite threshold 3", name)
		}
		// Duplicates don't count toward the threshold.
		if _, err := s.Combine([]Partial{p1, p1, p2}); err == nil {
			t.Fatalf("%s: duplicate partials accepted", name)
		}
	}
}

func TestSuitesPartyValidation(t *testing.T) {
	for name, s := range suites(t) {
		c, _ := s.Encrypt(big.NewInt(5))
		if _, err := s.PartialDecrypt(0, c); err == nil {
			t.Fatalf("%s: party 0 accepted", name)
		}
		if _, err := s.PartialDecrypt(6, c); err == nil {
			t.Fatalf("%s: party 6 accepted (only 5 shares)", name)
		}
	}
}

func TestSuitesForeignCipherRejected(t *testing.T) {
	all := suites(t)
	plain, dj := all["plain"], all["dj"]
	cp, _ := plain.Encrypt(big.NewInt(1))
	cd, _ := dj.Encrypt(big.NewInt(1))
	if _, err := plain.Add(cd, cd); err == nil {
		t.Fatal("plain suite accepted a DJ cipher")
	}
	if _, err := dj.Add(cp, cp); err == nil {
		t.Fatal("dj suite accepted a plain cipher")
	}
	if _, err := plain.Halve(cd); err == nil {
		t.Fatal("plain halve accepted a DJ cipher")
	}
	if _, err := plain.Double(cd, 1); err == nil {
		t.Fatal("plain double accepted a DJ cipher")
	}
	if _, err := dj.Double(cp, 1); err == nil {
		t.Fatal("dj double accepted a plain cipher")
	}
	if _, err := plain.Refresh(cd); err == nil {
		t.Fatal("plain refresh accepted a DJ cipher")
	}
	if _, err := dj.Refresh(cp); err == nil {
		t.Fatal("dj refresh accepted a plain cipher")
	}
	if _, err := dj.PartialDecrypt(1, cp); err == nil {
		t.Fatal("dj partial decrypt accepted a plain cipher")
	}
}

func TestSuitesOpCounting(t *testing.T) {
	for name, s := range suites(t) {
		before := s.Counts()
		c, _ := s.Encrypt(big.NewInt(9))
		_, _ = s.Add(c, c)
		_, _ = s.Halve(c)
		_, _ = s.Double(c, 3)
		_, _ = s.Refresh(c)
		_, _ = s.Refresh(c)
		p, _ := s.PartialDecrypt(1, c)
		p2, _ := s.PartialDecrypt(2, c)
		p3, _ := s.PartialDecrypt(3, c)
		_, _ = s.Combine([]Partial{p, p2, p3})
		after := s.Counts()
		if after.Encrypts != before.Encrypts+1 ||
			after.Adds != before.Adds+1 ||
			// One eager halving plus the two the refreshes stand for.
			after.Halvings != before.Halvings+3 ||
			after.Doublings != before.Doublings+3 ||
			after.Refreshes != before.Refreshes+2 ||
			after.PartialDecrypts != before.PartialDecrypts+3 ||
			after.Combines != before.Combines+1 {
			t.Fatalf("%s: counts before %+v after %+v", name, before, after)
		}
	}
}

func TestSuitesMetadata(t *testing.T) {
	for name, s := range suites(t) {
		if s.Parties() != 5 || s.Threshold() != 3 {
			t.Fatalf("%s: parties/threshold = %d/%d", name, s.Parties(), s.Threshold())
		}
		if s.CipherBytes() <= 0 {
			t.Fatalf("%s: cipher bytes = %d", name, s.CipherBytes())
		}
		if s.PlainModulus().Sign() <= 0 || s.PlainModulus().Bit(0) != 1 {
			t.Fatalf("%s: plain modulus must be positive and odd", name)
		}
		if s.Name() == "" {
			t.Fatalf("%s: empty name", name)
		}
	}
}

func TestPlainSuiteValidation(t *testing.T) {
	if _, err := NewPlainSuite(4, 1, 3, 2); err == nil {
		t.Fatal("tiny modulus accepted")
	}
	if _, err := NewPlainSuite(64, 1, 0, 1); err == nil {
		t.Fatal("0 parties accepted")
	}
	if _, err := NewPlainSuite(64, 1, 3, 4); err == nil {
		t.Fatal("threshold > parties accepted")
	}
}

func TestPlainSuiteDisagreeingPartialsRejected(t *testing.T) {
	s, err := NewPlainSuite(1024, 1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Encrypt(big.NewInt(1))
	b, _ := s.Encrypt(big.NewInt(2))
	pa, _ := s.PartialDecrypt(1, a)
	pb, _ := s.PartialDecrypt(2, b)
	if _, err := s.Combine([]Partial{pa, pb}); err == nil {
		t.Fatal("partials of different ciphertexts combined")
	}
}

func TestCipherRingAdapter(t *testing.T) {
	s, err := NewPlainSuite(1024, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := newCipherRing(s)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Encrypt(big.NewInt(6))
	sum := ring.Add(a, ring.Zero())
	if got := decryptVia(t, s, sum, []int{1}); got.Int64() != 6 {
		t.Fatalf("ring add with zero = %v", got)
	}
	d := ring.Double(a, 3)
	if got := decryptVia(t, s, d, []int{2}); got.Int64() != 48 {
		t.Fatalf("ring double(6, 3) = %v", got)
	}
	if ring.Clone(a) == nil {
		t.Fatal("clone returned nil")
	}
}
