package core

import (
	"math/big"
	"testing"

	"chiaroscuro/internal/gossip"
	"chiaroscuro/internal/p2p"
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

// owned returns a copy of c in storage the caller owns — the operand
// the in-place operations require.
func owned(t *testing.T, s CipherSuite, c Cipher) Cipher {
	t.Helper()
	v, err := s.NewCipherVector(1)
	if err != nil {
		t.Fatal(err)
	}
	return v[0].Set(c)
}

// TestSuitesHalveIsExactRingHalf pins the halving-related operations
// against each other: DoubleInPlace(c, k) multiplies the plaintext by
// 2^k, the eager oracle Halve is its inverse in the ring (even for odd
// plaintexts, where no integer half exists), and RefreshInPlace changes
// nothing a decryption can see — while on the real backend it does
// change the ciphertext (the accounted refresh is a counted no-op).
func TestSuitesHalveIsExactRingHalf(t *testing.T) {
	for name, s := range suites(t) {
		for _, v := range []int64{8, 7, 0, 1} {
			c, _ := s.Encrypt(big.NewInt(v))
			h, err := s.Halve(c)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// 2·halve(v) must equal v in the ring.
			s.DoubleInPlace(h, 1)
			if got := decryptVia(t, s, h, []int{1, 2, 3}); got.Int64() != v {
				t.Fatalf("%s: 2·halve(%d) = %v", name, v, got)
			}
			for _, k := range []uint{0, 1, 5} {
				d := owned(t, s, c)
				s.DoubleInPlace(d, k)
				if got := decryptVia(t, s, d, []int{2, 3, 4}); got.Int64() != v<<k {
					t.Fatalf("%s: %d·2^%d = %v", name, v, k, got)
				}
			}
			r := owned(t, s, c)
			if err := s.RefreshInPlace(r); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := decryptVia(t, s, r, []int{1, 4, 5}); got.Int64() != v {
				t.Fatalf("%s: refresh(%d) decrypts to %v", name, v, got)
			}
			if name == "dj" && r.Cmp(c) == 0 {
				t.Fatalf("%s: refresh left the ciphertext unchanged", name)
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

// TestValidateCipherBounds pins ValidateCipher, the gate byzantine fault
// plans put on incoming gossip, at the edges of each backend's range:
// the residues [0, M) of the accounted ring, the units (0, n^{s+1}) of
// Damgård–Jurik.
func TestValidateCipherBounds(t *testing.T) {
	all := suites(t)
	plain, dj := all["plain"], all["dj"]
	m := plain.PlainModulus()
	ct := dj.(*djSuite).ctMod
	encrypted := func(s CipherSuite) Cipher {
		c, err := s.Encrypt(big.NewInt(42))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	minus := func(x *big.Int, d int64) *big.Int { return new(big.Int).Sub(x, big.NewInt(d)) }
	for _, tc := range []struct {
		suite string
		value string
		c     Cipher
		ok    bool
	}{
		{"plain", "nil", nil, false},
		{"plain", "0", big.NewInt(0), true},
		{"plain", "-1", big.NewInt(-1), false},
		{"plain", "a ciphertext", encrypted(plain), true},
		{"plain", "M-1", minus(m, 1), true},
		{"plain", "M", m, false},
		{"dj", "nil", nil, false},
		{"dj", "0", big.NewInt(0), false},
		{"dj", "-1", big.NewInt(-1), false},
		{"dj", "a ciphertext", encrypted(dj), true},
		{"dj", "1", big.NewInt(1), true},
		{"dj", "n^{s+1}-1", minus(ct, 1), true},
		{"dj", "n^{s+1}", ct, false},
	} {
		if err := all[tc.suite].ValidateCipher(tc.c); (err == nil) != tc.ok {
			t.Errorf("%s: ValidateCipher(%s) = %v, want valid=%v", tc.suite, tc.value, err, tc.ok)
		}
	}
}

func TestSuitesOpCounting(t *testing.T) {
	for name, s := range suites(t) {
		before := s.Counts()
		c, _ := s.Encrypt(big.NewInt(9))
		_, _ = s.Add(c, c)
		_, _ = s.Halve(c)
		v, _ := s.NewCipherVector(1)
		_ = s.EncryptInto(v[0], big.NewInt(2))
		v[0].Set(c) // a copy, not an operation
		s.AddInPlace(v[0], c)
		s.AddAllInPlace(v[0], []Cipher{c, c})
		s.DoubleInPlace(v[0], 3)
		_ = s.RefreshInPlace(v[0])
		_ = s.RefreshInPlace(v[0])
		p, _ := s.PartialDecrypt(1, c)
		p2, _ := s.PartialDecrypt(2, c)
		p3, _ := s.PartialDecrypt(3, c)
		_, _ = s.Combine([]Partial{p, p2, p3})
		after := s.Counts()
		if after.Encrypts != before.Encrypts+2 ||
			after.Adds != before.Adds+4 ||
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
	for name, s := range suites(t) {
		ring := cipherRing{s}
		enc := func(v int64) Cipher {
			c, err := s.Encrypt(big.NewInt(v))
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		six := enc(6)
		var a Cipher
		ring.Set(&a, six) // empty slot: a cipher of its own
		ring.Add(&a, enc(0))
		if got := decryptVia(t, s, a, []int{1, 2, 3}); got.Int64() != 6 {
			t.Fatalf("%s: ring add with zero = %v", name, got)
		}
		ring.Double(&a, 3)
		if got := decryptVia(t, s, a, []int{2, 3, 4}); got.Int64() != 48 {
			t.Fatalf("%s: ring double(6, 3) = %v", name, got)
		}
		held := a
		ring.AddAll(&a, []Cipher{enc(1), enc(2)})
		if got := decryptVia(t, s, a, []int{1, 3, 5}); got.Int64() != 51 || a != held {
			t.Fatalf("%s: ring add-all = %v (slot replaced: %v)", name, got, a != held)
		}
		if got := decryptVia(t, s, six, []int{1, 2, 3}); got.Int64() != 6 {
			t.Fatalf("%s: in-place arithmetic on a copy reached the source: %v", name, got)
		}
	}
}

// TestMeansValuesAreCopies pins State.Values on a participant's cipher
// state: the returned vector is a copy, so absorbing a message afterwards
// (in place, on either backend) leaves the captured values unchanged.
func TestMeansValuesAreCopies(t *testing.T) {
	for name, p := range map[string]Params{
		"plain": {K: 2, Epsilon: 50, Iterations: 1, Seed: 5, GossipRounds: 4},
		"dj":    {K: 2, Epsilon: 50, Iterations: 1, Seed: 5, GossipRounds: 4, Backend: BackendDamgardJurik, ModulusBits: 128},
	} {
		r := openTestRun(t, blobs(4, 3, 2), p)
		means := func(id p2p.NodeID, x float64) *gossip.State[Cipher] {
			vals, noises := make([]float64, r.sideLen), make([]float64, r.sideLen)
			for i := range vals {
				vals[i] = x
			}
			values, err := r.newParticipant(id).encryptSide(r.newScratch(), vals, noises)
			if err != nil {
				t.Fatal(err)
			}
			st, err := gossip.NewState[Cipher](r.ring, values, 1)
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		a, b := means(0, 0.25), means(1, 0.5)
		captured := a.Values()
		want := make([]*big.Int, len(captured))
		for i, c := range captured {
			want[i] = decryptVia(t, r.suite, c, []int{1, 2, 3})
		}
		if err := a.Absorb(b.Emit()); err != nil {
			t.Fatal(err)
		}
		for i, c := range captured {
			if got := decryptVia(t, r.suite, c, []int{1, 2, 3}); got.Cmp(want[i]) != 0 {
				t.Fatalf("%s: coordinate %d of a Values() copy changed under Absorb: %v, was %v", name, i, got, want[i])
			}
		}
	}
}
