package core

import (
	"errors"
	"fmt"
	"math/big"

	"chiaroscuro/internal/gossip"
	"chiaroscuro/internal/vecpool"
)

// plainSuite is the accounted backend: values are plaintext residues of
// the same ring Z_M the real backend would use, every operation performs
// the identical ring arithmetic (so gossip trajectories are bit-identical
// to the encrypted run), and counters record what the encrypted run would
// have cost. This is precisely the demonstration's configuration: the
// distributed algorithms are unchanged whether homomorphic operations are
// enabled or not (Sec. III.B, point 1).
type plainSuite struct {
	m         *big.Int
	ring      *gossip.ModRing // Z_M's conditional-subtraction arithmetic
	parties   int
	threshold int
	// cipherBytes mimics the real backend's ciphertext size for the
	// declared key size, so network accounting matches an encrypted run.
	cipherBytes int

	opCounters
}

// NewPlainSuite builds the accounted backend for a Damgård–Jurik key of
// modulusBits bits at the given degree: the simulated ciphertext size is
// modulusBits·(degree+1) bits, and the plaintext ring Z_M with
// M = 2^(modulusBits·degree) − 1 is as wide as that key's plaintext
// space n^degree, so a run packs as many coordinates per ciphertext — and
// performs as many operations and sends as many bytes — as the modelled
// key would. M is odd, like n^degree.
func NewPlainSuite(modulusBits, degree, parties, threshold int) (CipherSuite, error) {
	if modulusBits < 8 {
		return nil, fmt.Errorf("core: modulus of %d bits is too small", modulusBits)
	}
	if parties < 1 || threshold < 1 || threshold > parties {
		return nil, fmt.Errorf("core: invalid (parties=%d, threshold=%d)", parties, threshold)
	}
	m := new(big.Int).Lsh(big.NewInt(1), uint(modulusBits*degree))
	m.Sub(m, big.NewInt(1))
	ring, err := gossip.NewModRing(m)
	if err != nil {
		return nil, err
	}
	return &plainSuite{
		m:           m,
		ring:        ring,
		parties:     parties,
		threshold:   threshold,
		cipherBytes: modulusBits * (degree + 1) / 8,
	}, nil
}

// Name implements CipherSuite.
func (s *plainSuite) Name() string { return "plain-accounted" }

// PlainModulus implements CipherSuite.
func (s *plainSuite) PlainModulus() *big.Int { return new(big.Int).Set(s.m) }

// CipherBytes implements CipherSuite.
func (s *plainSuite) CipherBytes() int { return s.cipherBytes }

// Encrypt implements CipherSuite.
func (s *plainSuite) Encrypt(m *big.Int) (Cipher, error) {
	if m == nil {
		return nil, errors.New("core: nil plaintext")
	}
	s.encrypts.Add(1)
	if m.Sign() >= 0 && m.Cmp(s.m) < 0 {
		return new(big.Int).Set(m), nil
	}
	return new(big.Int).Mod(m, s.m), nil
}

// Add implements CipherSuite. Operands are reduced residues, so the mod
// is a single conditional subtraction — no division.
func (s *plainSuite) Add(a, b Cipher) (Cipher, error) {
	s.adds.Add(1)
	out := new(big.Int).Add(a, b)
	if out.Cmp(s.m) >= 0 {
		out.Sub(out, s.m)
	}
	return out, nil
}

// Halve implements CipherSuite: the eager oracle, multiplication by
// 2^{-1} mod M. For odd M this has a division-free form — even residues
// shift right, odd residues become (v+M)/2 (exact, since v+M is even) —
// arithmetically identical to out = v·inv2 mod M.
func (s *plainSuite) Halve(c Cipher) (Cipher, error) {
	s.halvings.Add(1)
	out := new(big.Int)
	if c.Bit(0) == 0 {
		out.Rsh(c, 1)
	} else {
		out.Add(c, s.m)
		out.Rsh(out, 1)
	}
	return out, nil
}

// ValidateCipher implements CipherSuite: a plain "ciphertext" is valid
// iff it is a residue reduced into the ring.
func (s *plainSuite) ValidateCipher(c Cipher) error {
	if c == nil || c.Sign() < 0 || c.Cmp(s.m) >= 0 {
		return errors.New("core: plain cipher residue outside ring")
	}
	return nil
}

// Parties implements CipherSuite.
func (s *plainSuite) Parties() int { return s.parties }

// Threshold implements CipherSuite.
func (s *plainSuite) Threshold() int { return s.threshold }

// PartialDecrypt implements CipherSuite.
func (s *plainSuite) PartialDecrypt(party int, c Cipher) (Partial, error) {
	if party < 1 || party > s.parties {
		return Partial{}, fmt.Errorf("core: party %d has no key share", party)
	}
	s.partialDecrypts.Add(1)
	// The partial shares the residue instead of copying it. The ciphers a
	// run decrypts are its pending vector, fresh from step 2c's Add and
	// never mutated after — the in-place arithmetic only touches push-sum
	// state.
	return Partial{Index: party, Value: c}, nil
}

// Combine implements CipherSuite. It enforces the same threshold
// semantics as the real backend (count and distinctness of partials).
// Distinctness runs as a quadratic scan for the common partial-set
// sizes (the defaulted threshold caps at 16) — a map per Combine was
// one of the dominant allocation sources of large-population decrypt
// phases — and falls back to a map above the cutoff, since
// DecryptThreshold is an uncapped public knob and O(k²) would bite a
// deliberately huge quorum.
func (s *plainSuite) Combine(parts []Partial) (*big.Int, error) {
	if len(parts) < s.threshold {
		return nil, fmt.Errorf("core: have %d partial decryptions, need %d", len(parts), s.threshold)
	}
	const scanCutoff = 64
	var seen map[int]bool
	if len(parts) > scanCutoff {
		seen = make(map[int]bool, len(parts))
	}
	distinct := 0
	for i, p := range parts {
		if p.Index < 1 || p.Index > s.parties {
			return nil, fmt.Errorf("core: partial with invalid index %d", p.Index)
		}
		if p.Value == nil {
			return nil, errors.New("core: partial with nil value")
		}
		dup := false
		if seen != nil {
			dup = seen[p.Index]
			seen[p.Index] = true
		} else {
			for j := 0; j < i; j++ {
				if parts[j].Index == p.Index {
					dup = true
					break
				}
			}
		}
		if !dup {
			distinct++
		}
	}
	if distinct < s.threshold {
		return nil, fmt.Errorf("core: only %d distinct partials, need %d", distinct, s.threshold)
	}
	for _, p := range parts {
		if p.Value.Cmp(parts[0].Value) != 0 {
			return nil, errors.New("core: partial decryptions disagree")
		}
	}
	s.combines.Add(1)
	return new(big.Int).Set(parts[0].Value), nil
}

// CombineColumns implements CipherSuite: the accounted equivalent of
// count Combine calls over per-cipher columns of the given responder
// sets. Validation matches Combine — index range, distinctness (here:
// strictly ascending set order), nil values, and per-column agreement
// across every responder — and it accounts the same count combines.
func (s *plainSuite) CombineColumns(sets [][]Partial, count int) ([]*big.Int, error) {
	if count < 1 {
		return nil, errors.New("core: empty cipher column")
	}
	if len(sets) < s.threshold {
		return nil, fmt.Errorf("core: have %d partial decryptions, need %d", len(sets), s.threshold)
	}
	prev := 0
	for j, set := range sets {
		if len(set) != count {
			return nil, fmt.Errorf("core: responder set %d has %d partials, want %d", j, len(set), count)
		}
		idx := set[0].Index
		if idx < 1 || idx > s.parties {
			return nil, fmt.Errorf("core: partial with invalid index %d", idx)
		}
		if idx <= prev {
			return nil, fmt.Errorf("core: responder sets not ascending at index %d", idx)
		}
		prev = idx
		for _, p := range set {
			if p.Index != idx {
				return nil, fmt.Errorf("core: mixed indices in responder set %d", j)
			}
			if p.Value == nil {
				return nil, errors.New("core: partial with nil value")
			}
		}
	}
	out := make([]*big.Int, count)
	for i := 0; i < count; i++ {
		ref := sets[0][i].Value
		for _, set := range sets {
			if set[i].Value.Cmp(ref) != 0 {
				return nil, errors.New("core: partial decryptions disagree")
			}
		}
		out[i] = new(big.Int).Set(ref)
	}
	s.combines.Add(int64(count))
	return out, nil
}

// --- In-place push-sum arithmetic ------------------------------------------
//
// The accounted values live in vecpool residue arenas sized for the
// ring plus the carry limb of an in-place add, so a warmed
// gossip cycle allocates nothing. Counting matches the real backend
// operation for operation.

// NewCipherVector implements CipherSuite: n zero residues in one
// vecpool arena slab.
func (s *plainSuite) NewCipherVector(n int) ([]Cipher, error) {
	arena, err := vecpool.NewResidueArena(n, s.m.BitLen())
	if err != nil {
		return nil, err
	}
	out := make([]Cipher, n)
	for i := range out {
		out[i] = arena.Int(i)
	}
	return out, nil
}

// EncryptInto implements CipherSuite.
func (s *plainSuite) EncryptInto(dst Cipher, m *big.Int) error {
	if m == nil {
		return errors.New("core: nil plaintext")
	}
	s.encrypts.Add(1)
	if m.Sign() >= 0 && m.Cmp(s.m) < 0 {
		dst.Set(m)
		return nil
	}
	dst.Mod(m, s.m)
	return nil
}

// AddInPlace implements CipherSuite: the reduced-residue add with a
// conditional subtraction.
func (s *plainSuite) AddInPlace(acc, v Cipher) {
	s.adds.Add(1)
	s.ring.Add(&acc, v)
}

// AddAllInPlace implements CipherSuite, counting the column's adds in
// one atomic update.
func (s *plainSuite) AddAllInPlace(acc Cipher, vs []Cipher) {
	s.ring.AddAll(&acc, vs)
	s.adds.Add(int64(len(vs)))
}

// DoubleInPlace implements CipherSuite: v·2^k mod M (gossip.ModRing's
// Double), accounted as the k squarings the real backend performs.
func (s *plainSuite) DoubleInPlace(c Cipher, k uint) {
	s.doublings.Add(int64(k))
	s.ring.Double(&c, k)
}

// RefreshInPlace implements CipherSuite: there is no randomness to
// renew in a plaintext residue — counted, because the encrypted run
// pays a rerandomization here.
func (s *plainSuite) RefreshInPlace(Cipher) error {
	s.refreshes.Add(1)
	return nil
}

// Provision implements CipherSuite: there is no randomizer pool.
func (s *plainSuite) Provision(int) {}

// Close implements CipherSuite: nothing to release.
func (s *plainSuite) Close() {}
