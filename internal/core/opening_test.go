package core

import (
	"errors"
	"math"
	"math/big"
	"testing"

	"chiaroscuro/internal/fixedpoint"
)

// openingCase is one run shape whose openings are checked: the run's
// own slot layout, or one swapped in at a chosen width where a budget
// the run would derive cannot reach the slot count the case needs.
type openingCase struct {
	name      string
	data      [][]float64
	params    Params
	plainBits int  // with width: the swapped-in layout (0 = the run's own)
	width     uint // slot width of the swapped-in layout
	slots     int  // the slots per ciphertext the case must exercise
}

// goldenConfig is the pinned golden run of the given name.
func goldenConfig(t *testing.T, name string) ([][]float64, Params) {
	t.Helper()
	for _, g := range goldenConfigs() {
		if g.name == name {
			return g.data, g.params
		}
	}
	t.Fatalf("no golden run %q", name)
	return nil, Params{}
}

func openingCases(t *testing.T) []openingCase {
	data, golden := goldenConfig(t, "dj-unpacked") // the golden Damgård–Jurik run's 128-bit key
	plain := Params{K: 2, Epsilon: 100, Iterations: 2, GossipRounds: 8, DecryptThreshold: 2}
	return []openingCase{
		{name: "dj128", data: data, params: golden, slots: 2},
		{name: "dj128 S=1", data: data, params: golden, plainBits: 127, width: 100, slots: 1},
		{name: "dj1024", data: blobs(5, 10, 2), slots: 20, params: Params{
			K: 2, Epsilon: 100, Iterations: 2, GossipRounds: 8, DecryptThreshold: 2,
			Backend: BackendDamgardJurik, ModulusBits: 1024,
		}},
		{name: "plain S=1", data: blobs(5, 10, 2), params: plain, plainBits: 319, width: 200, slots: 1},
		{name: "plain S=20", data: blobs(5, 10, 2), params: plain, plainBits: 300, width: 15, slots: 20},
	}
}

// swapLayout makes r pack its sides with l instead of its own layout.
// Only for a run none of whose ciphertexts exist yet.
func swapLayout(r *runShared, l *fixedpoint.SlotLayout) {
	r.layout, r.sideCiphers = l, l.Groups(r.sideLen)
}

// slotWidth is l's slot width, read off where Pack puts a second
// coordinate. A one-slot layout never shifts, and reports 0.
func slotWidth(t *testing.T, l *fixedpoint.SlotLayout) uint {
	t.Helper()
	if l.Slots() < 2 {
		return 0
	}
	p, err := l.Pack([]*big.Int{big.NewInt(0), big.NewInt(1)})
	if err != nil {
		t.Fatal(err)
	}
	return uint(p[0].BitLen() - 1)
}

// setup prepares the case's run and, if asked, swaps in its layout; it
// returns the run and its slot width.
func (tc openingCase) setup(t *testing.T) (*runShared, uint) {
	t.Helper()
	r := openTestRun(t, tc.data, tc.params)
	if tc.width > 0 {
		l, err := fixedpoint.NewSlotLayout(tc.plainBits, tc.width-2, 1)
		if err != nil {
			t.Fatal(err)
		}
		swapLayout(r, l)
	}
	if r.layout.Slots() != tc.slots {
		t.Fatalf("%s: layout of %d slots, want %d", tc.name, r.layout.Slots(), tc.slots)
	}
	if tc.width > 0 {
		return r, tc.width
	}
	return r, slotWidth(t, r.layout)
}

// summands splits each step-2c sum ys[j] into a mean and a noise share,
// so the homomorphic addition matters.
func summands(ys []*big.Int) (means, noises []*big.Int) {
	for j, y := range ys {
		noise := big.NewInt(int64(3*j - 17))
		means = append(means, new(big.Int).Sub(y, noise))
		noises = append(noises, noise)
	}
	return means, noises
}

// packWide packs one side's signed integers as the run packs them at
// encryption — Horner's rule at the layout's width, sign-wrapped — but
// without PackInto's bound on one contribution: the integers may be sums,
// or pre-scaled.
func packWide(t *testing.T, r *runShared, vs []*big.Int) []*big.Int {
	t.Helper()
	width := slotWidth(t, r.layout)
	out := make([]*big.Int, r.sideCiphers)
	for g := range out {
		lo := g * r.layout.Slots()
		hi := min(lo+r.layout.Slots(), len(vs))
		m := new(big.Int)
		for j := hi - 1; j >= lo; j-- {
			m.Lsh(m, width)
			m.Add(m, vs[j])
		}
		if err := fixedpoint.WrapSignedInPlace(m, r.plainMod, r.halfMod); err != nil {
			t.Fatal(err)
		}
		out[g] = m
	}
	return out
}

// fusedVector encrypts [means | noise] packed as the run packs them,
// where the step-2c sums are ys.
func fusedVector(t *testing.T, r *runShared, ys []*big.Int) []Cipher {
	t.Helper()
	vals, err := r.suite.NewCipherVector(2 * r.sideCiphers)
	if err != nil {
		t.Fatal(err)
	}
	means, noises := summands(ys)
	for side, vs := range [2][]*big.Int{means, noises} {
		for g, m := range packWide(t, r, vs) {
			if err := r.suite.EncryptInto(vals[side*r.sideCiphers+g], m); err != nil {
				t.Fatal(err)
			}
		}
	}
	return vals
}

// openAll has the run's first Threshold share holders open cts.
func openAll(t *testing.T, r *runShared, cts []Cipher) []*big.Int {
	t.Helper()
	sets := make([][]Partial, r.suite.Threshold())
	for j := range sets {
		sets[j] = make([]Partial, len(cts))
		for i, c := range cts {
			p, err := r.suite.PartialDecrypt(j+1, c)
			if err != nil {
				t.Fatal(err)
			}
			sets[j][i] = p
		}
	}
	plains, err := r.suite.CombineColumns(sets, len(cts))
	if err != nil {
		t.Fatal(err)
	}
	return plains
}

// perCoordinate is the protocol packing replaced, kept as the oracle:
// the means and noise shares of ys encrypted one ciphertext per
// coordinate, one step-2c sum and one threshold decryption per
// coordinate, sign-unwrapped (decoding then shifts by what is left of
// the halving budget).
func perCoordinate(t *testing.T, r *runShared, ys []*big.Int) []*big.Int {
	t.Helper()
	means, noises := summands(ys)
	cts := make([]Cipher, len(ys))
	for j := range cts {
		var sides [2]Cipher
		for side, v := range [2]*big.Int{means[j], noises[j]} {
			c, err := r.suite.Encrypt(new(big.Int).Mod(v, r.plainMod))
			if err != nil {
				t.Fatal(err)
			}
			sides[side] = c
		}
		c, err := r.suite.Add(sides[0], sides[1])
		if err != nil {
			t.Fatal(err)
		}
		cts[j] = c
	}
	plains := openAll(t, r, cts)
	for _, m := range plains {
		if err := fixedpoint.UnwrapSignedInPlace(m, r.plainMod, r.halfMod); err != nil {
			t.Fatal(err)
		}
	}
	return plains
}

// TestOpeningMatchesPerCoordinate is the exactness property of packing
// at encryption, on both backends, at one slot per ciphertext (where
// packing changes nothing), at the golden Damgård–Jurik run's own two
// and at 20 (a 1024-bit key at crypto-dj's budget, 50 bits a slot):
// with every step-2c sum at the edge of the budget, ±2^(width−3), in
// mixed sign patterns, and at every halving exponent h ∈ [0, T], the
// packed sides' opening discloses the integers — and the Float64bits —
// per-coordinate ciphertexts disclose, for one addition per group and no
// squaring.
func TestOpeningMatchesPerCoordinate(t *testing.T) {
	for _, tc := range openingCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			r, width := tc.setup(t)
			edge := new(big.Int).Lsh(big.NewInt(1), width-3)
			const w = 0.75
			for pattern := 0; pattern < 3; pattern++ {
				ys := make([]*big.Int, r.sideLen)
				for j := range ys {
					ys[j] = new(big.Int).Set(edge)
					if (pattern == 1) || (pattern == 2 && j%3 != 0) {
						ys[j].Neg(ys[j])
					}
				}
				ref := perCoordinate(t, r, ys)
				vals := fusedVector(t, r, ys)
				before := r.suite.Counts()
				opening := r.perturbedOpening(vals)
				ops := opCountsMinus(r.suite.Counts(), before)
				if len(opening) != r.sideCiphers {
					t.Fatalf("opening of %d ciphertexts, want %d", len(opening), r.sideCiphers)
				}
				if ops.Adds != int64(r.sideCiphers) || ops.Doublings != 0 {
					t.Fatalf("opening cost %d additions and %d doublings, want %d and 0", ops.Adds, ops.Doublings, r.sideCiphers)
				}
				opened := openAll(t, r, opening)
				// The opened plaintexts do not depend on the exponent; the
				// decode does.
				for h := uint(0); h <= r.preScale; h++ {
					plains := make([]*big.Int, len(opened))
					for i, m := range opened {
						plains[i] = new(big.Int).Set(m)
					}
					got, err := r.signedAggregates(r.newCodecScratch(), plains, h, w)
					if err != nil {
						t.Fatalf("pattern %d, h=%d: %v", pattern, h, err)
					}
					denom := w * math.Ldexp(1, int(r.preScale))
					for j, m := range ref {
						want := new(big.Int).Lsh(m, r.preScale-h)
						if got[j].Cmp(want) != 0 {
							t.Fatalf("pattern %d, h=%d: coordinate %d = %s, per-coordinate %s", pattern, h, j, got[j], want)
						}
						g, e := r.codec.Decode(got[j])/denom, r.codec.Decode(want)/denom
						if math.Float64bits(g) != math.Float64bits(e) {
							t.Fatalf("pattern %d, h=%d: coordinate %d decodes to %v, per-coordinate %v", pattern, h, j, g, e)
						}
					}
				}
			}
		})
	}
}

// TestOpeningOutOfBudgetFails: a step-2c sum past its budget — here one
// that would carry into its neighbour — fails the decode instead of
// shifting the neighbour's disclosed value.
func TestOpeningOutOfBudgetFails(t *testing.T) {
	for _, tc := range openingCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			r, width := tc.setup(t)
			ys := make([]*big.Int, r.sideLen)
			for j := range ys {
				ys[j] = big.NewInt(int64(j) - 5)
			}
			// 2^(width−1)+1: as a balanced digit, −2^(width−1)+1 and a
			// carry of one into the coordinate above.
			ys[0] = new(big.Int).Lsh(big.NewInt(1), width-1)
			ys[0].Add(ys[0], big.NewInt(1))
			plains := openAll(t, r, r.perturbedOpening(fusedVector(t, r, ys)))
			if _, err := r.signedAggregates(r.newCodecScratch(), plains, 0, 1); !errors.Is(err, fixedpoint.ErrSlotOverflow) {
				t.Fatalf("an out-of-budget sum decoded with error %v, want ErrSlotOverflow", err)
			}
		})
	}
}

// TestOpeningRefusesInflatedWeight: a sum of 3·2^(width−2)+1 — what
// mass inflated past the population can reach — splits into an
// in-budget digit and a carry into its neighbour that no digit check can
// see, so a share heavier than the population is refused before its
// split.
func TestOpeningRefusesInflatedWeight(t *testing.T) {
	for _, tc := range openingCases(t) {
		if tc.slots < 2 {
			continue // a one-slot plaintext has no neighbour to carry into
		}
		t.Run(tc.name, func(t *testing.T) {
			r, width := tc.setup(t)
			ys := make([]*big.Int, r.sideLen)
			for j := range ys {
				ys[j] = big.NewInt(int64(j) - 5)
			}
			ys[0] = new(big.Int).Lsh(big.NewInt(3), width-2)
			ys[0].Add(ys[0], big.NewInt(1))
			plains := openAll(t, r, r.perturbedOpening(fusedVector(t, r, ys)))
			split := make([]*big.Int, r.sideLen)
			for j := range split {
				split[j] = new(big.Int)
			}
			unwrapped := make([]*big.Int, len(plains))
			for i, m := range plains {
				unwrapped[i] = new(big.Int).Set(m)
				if err := fixedpoint.UnwrapSignedInPlace(unwrapped[i], r.plainMod, r.halfMod); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.layout.UnpackInto(split, unwrapped); err != nil || split[1].Cmp(ys[1]) == 0 {
				t.Fatalf("split of the inflated sum: error %v, neighbour %s (sum %s): the carry no longer goes unseen", err, split[1], ys[1])
			}
			heavy := float64(r.population) + 1
			if _, err := r.signedAggregates(r.newCodecScratch(), plains, 0, heavy); !errors.Is(err, errOpeningWeight) {
				t.Fatalf("a share of weight %g over a population of %d decoded with error %v, want errOpeningWeight", heavy, r.population, err)
			}
		})
	}
}

// TestOpeningUnderMassInflation: duplicated and replayed gossip is
// absorbed twice, so a holder's push-sum weight — and with it its sums —
// can outgrow the population the slot width was sized for. At a
// population of four, where that happens within a few rounds, a run
// packing several slots per ciphertext never discloses anything one
// ciphertext per coordinate would not have: each participant either
// discloses the same Float64bits, or refuses the inflated share as a
// failed decryption. Both backends: the accounted ring of a 1024-bit
// key, and the golden Damgård–Jurik run's 128-bit key.
func TestOpeningUnderMassInflation(t *testing.T) {
	_, golden := goldenConfig(t, "dj-unpacked")
	for _, shape := range []struct {
		name     string
		backend  Backend
		modulus  int
		minSlots int
	}{
		{"plain1024", BackendPlainAccounted, 1024, 4},
		{"dj128", golden.Backend, golden.ModulusBits, 2},
	} {
		t.Run(shape.name, func(t *testing.T) {
			data := blobs(4, 10, 2)
			refused := 0
			for _, spec := range []string{"dup=1", "dup=0.6;replay=0,1"} {
				for seed := int64(1); seed <= 3; seed++ {
					p := Params{
						K: 2, Epsilon: 100, Iterations: 1, GossipRounds: 8, DecryptThreshold: 2,
						Backend: shape.backend, ModulusBits: shape.modulus,
						Seed: seed, Faults: mustPlan(t, spec),
					}
					_, packed, slots := layoutRun(t, data, p, 1, false)
					if slots < shape.minSlots {
						t.Fatalf("%d slots per ciphertext, want at least %d", slots, shape.minSlots)
					}
					_, oracle, _ := layoutRun(t, data, p, 1, true)
					for i := range packed {
						got, want := packed[i].history, oracle[i].history
						if len(got) != len(want) {
							t.Fatalf("%s seed %d: participant %d finished %d iterations, per-coordinate %d", spec, seed, i, len(got), len(want))
						}
						for it := range got {
							g, w := got[it], want[it]
							if g.DecryptFailed {
								if !w.DecryptFailed {
									refused++
								}
								continue
							}
							if w.DecryptFailed {
								t.Fatalf("%s seed %d: participant %d iteration %d disclosed a share the per-coordinate run failed", spec, seed, i, it)
							}
							for j := range g.PerturbedCentroids {
								if !sameBits(g.PerturbedCentroids[j], w.PerturbedCentroids[j]) || !sameBits(g.PerturbedCounts[j:j+1], w.PerturbedCounts[j:j+1]) {
									t.Fatalf("%s seed %d: participant %d iteration %d cluster %d disclosed %v (count %v), per-coordinate %v (count %v)",
										spec, seed, i, it, j, g.PerturbedCentroids[j], g.PerturbedCounts[j], w.PerturbedCentroids[j], w.PerturbedCounts[j])
								}
							}
						}
					}
				}
			}
			if refused == 0 {
				t.Fatal("no share outgrew the slot budget: the plans no longer inflate mass enough to test the refusal")
			}
		})
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
