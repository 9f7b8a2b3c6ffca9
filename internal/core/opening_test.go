package core

import (
	"errors"
	"math"
	"math/big"
	"testing"

	"chiaroscuro/internal/fixedpoint"
)

// openingCase is one run shape whose openings are checked: the run's
// own digit layout, or — where the accounted backend's fixed 320-bit
// ring cannot reach a slot count at a realistic budget — one swapped in
// at a chosen width.
type openingCase struct {
	name      string
	data      [][]float64
	params    Params
	plainBits int  // with width: the swapped-in layout (0 = the run's own)
	width     uint // digit width of the swapped-in layout
	slots     int  // the opening slots the case must exercise
}

func openingCases() []openingCase {
	golden := goldenConfigs()[3] // dj-unpacked: the golden Damgård–Jurik run's 128-bit key
	plain := Params{K: 2, Epsilon: 100, Iterations: 2, GossipRounds: 8, DecryptThreshold: 2}
	return []openingCase{
		{name: "dj128", data: golden.data, params: golden.params, slots: 2},
		{name: "dj128 S=1", data: golden.data, params: golden.params, plainBits: 127, width: 100, slots: 1},
		{name: "dj1024", data: blobs(5, 10, 2), slots: 20, params: Params{
			K: 2, Epsilon: 100, Iterations: 2, GossipRounds: 8, DecryptThreshold: 2,
			Backend: BackendDamgardJurik, ModulusBits: 1024,
		}},
		{name: "plain S=1", data: blobs(5, 10, 2), params: plain, plainBits: 319, width: 200, slots: 1},
		{name: "plain S=20", data: blobs(5, 10, 2), params: plain, plainBits: 300, width: 15, slots: 20},
	}
}

// setup prepares the case's run and, if asked, swaps in its layout.
func (tc openingCase) setup(t *testing.T) *runSetup {
	t.Helper()
	rs, err := prepareRun(tc.data, tc.params)
	if err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}
	r := rs.shared
	if tc.width > 0 {
		l, err := fixedpoint.NewDigitLayout(tc.plainBits, tc.width)
		if err != nil {
			t.Fatal(err)
		}
		r.opening, r.openCiphers = l, l.Groups(r.sideLen)
	}
	if r.opening == nil || r.opening.Slots() != tc.slots {
		t.Fatalf("%s: opening layout %+v, want %d slots", tc.name, r.opening, tc.slots)
	}
	return rs
}

// fusedVector encrypts [means | noise] whose step-2c sums are ys: each
// mean is its sum minus a noise share, so the homomorphic addition
// matters.
func fusedVector(t *testing.T, r *runShared, ys []*big.Int) []Cipher {
	t.Helper()
	vals, err := r.suite.NewCipherVector(2 * r.sideCiphers)
	if err != nil {
		t.Fatal(err)
	}
	for j, y := range ys {
		noise := big.NewInt(int64(3*j - 17))
		mean := new(big.Int).Sub(y, noise)
		for side, v := range [2]*big.Int{mean, noise} {
			m := new(big.Int).Mod(v, r.plainMod)
			if err := r.suite.EncryptInto(vals[side*r.sideCiphers+j], m); err != nil {
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

// perCoordinate is the opening packed openings replaced, kept as the
// oracle: one step-2c sum and one threshold decryption per coordinate,
// sign-unwrapped (decoding then shifts by what is left of the halving
// budget).
func perCoordinate(t *testing.T, r *runShared, vals []Cipher) []*big.Int {
	t.Helper()
	cts := make([]Cipher, r.sideLen)
	for j := range cts {
		c, err := r.suite.Add(vals[j], vals[r.sideCiphers+j])
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

// TestOpeningMatchesPerCoordinate is the exactness property of packed
// openings, on both backends, at one slot per opened ciphertext (where
// packing changes nothing), at the golden Damgård–Jurik run's own two
// and at 20 (a 1024-bit key at crypto-dj's budget, 50 bits a slot):
// with every step-2c sum at the edge of the budget, ±2^(width−3), in
// mixed sign patterns, and at every halving exponent h ∈ [0, T], the
// packed opening discloses the integers — and the Float64bits —
// per-coordinate openings disclose, and its packing costs exactly
// width squarings per coordinate but each group's first, counted apart
// from the gossip's doublings.
func TestOpeningMatchesPerCoordinate(t *testing.T) {
	for _, tc := range openingCases() {
		t.Run(tc.name, func(t *testing.T) {
			rs := tc.setup(t)
			defer rs.close()
			r := rs.shared
			edge := new(big.Int).Lsh(big.NewInt(1), r.opening.Width()-3)
			const w = 0.75
			for pattern := 0; pattern < 3; pattern++ {
				ys := make([]*big.Int, r.sideLen)
				for j := range ys {
					ys[j] = new(big.Int).Set(edge)
					if (pattern == 1) || (pattern == 2 && j%3 != 0) {
						ys[j].Neg(ys[j])
					}
				}
				vals := fusedVector(t, r, ys)
				ref := perCoordinate(t, r, vals)
				before := r.suite.Counts()
				opening := r.perturbedOpening(vals)
				ops := opCountsMinus(r.suite.Counts(), before)
				if len(opening) != r.openCiphers {
					t.Fatalf("opening of %d ciphertexts, want %d", len(opening), r.openCiphers)
				}
				if want := int64(r.opening.Width()) * int64(r.sideLen-r.openCiphers); ops.OpeningSquarings != want || ops.Doublings != 0 {
					t.Fatalf("packing cost %d opening squarings and %d doublings, want %d and 0", ops.OpeningSquarings, ops.Doublings, want)
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
	for _, tc := range openingCases() {
		t.Run(tc.name, func(t *testing.T) {
			rs := tc.setup(t)
			defer rs.close()
			r := rs.shared
			ys := make([]*big.Int, r.sideLen)
			for j := range ys {
				ys[j] = big.NewInt(int64(j) - 5)
			}
			// 2^(width−1)+1: as a balanced digit, −2^(width−1)+1 and a
			// carry of one into the coordinate above.
			ys[0] = new(big.Int).Lsh(big.NewInt(1), r.opening.Width()-1)
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
	for _, tc := range openingCases() {
		if tc.slots < 2 {
			continue // a one-digit plaintext has no neighbour to carry into
		}
		t.Run(tc.name, func(t *testing.T) {
			rs := tc.setup(t)
			defer rs.close()
			r := rs.shared
			ys := make([]*big.Int, r.sideLen)
			for j := range ys {
				ys[j] = big.NewInt(int64(j) - 5)
			}
			ys[0] = new(big.Int).Lsh(big.NewInt(3), r.opening.Width()-2)
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
			if err := r.opening.SplitInto(split, unwrapped); err != nil || split[1].Cmp(ys[1]) == 0 {
				t.Fatalf("split of the inflated sum: error %v, neighbour %s (sum %s): the carry no longer goes unseen", err, split[1], ys[1])
			}
			heavy := float64(r.population) + 1
			if _, err := r.signedAggregates(r.newCodecScratch(), plains, 0, heavy); !errors.Is(err, errOpeningWeight) {
				t.Fatalf("a share of weight %g over a population of %d decoded with error %v, want errOpeningWeight", heavy, r.population, err)
			}
		})
	}
}

// openingRun drives one fault-planned run to completion on the
// sequential engine and returns its participants; perCoord swaps in a
// one-slot opening as wide as the plaintext, which opens every
// coordinate on its own, as unpacked runs did before packed openings.
func openingRun(t *testing.T, data [][]float64, p Params, perCoord bool) []*participant {
	t.Helper()
	rs, err := prepareRun(data, p)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.close()
	if r := rs.shared; perCoord {
		l, err := fixedpoint.NewDigitLayout(r.plainMod.BitLen()-1, uint(r.plainMod.BitLen()-1))
		if err != nil {
			t.Fatal(err)
		}
		r.opening, r.openCiphers = l, l.Groups(r.sideLen)
	}
	d, err := newCycleDriver(data, rs, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.run(); err != nil {
		t.Fatal(err)
	}
	return d.participants
}

// TestOpeningUnderMassInflation: duplicated and replayed gossip is
// absorbed twice, so a holder's push-sum weight — and with it its sums —
// can outgrow the population the opening's digit width was sized for.
// At a population of four, where that happens within a few rounds, a
// packed opening never discloses anything the per-coordinate opening
// would not have: each participant either discloses the same
// Float64bits, or refuses the inflated share as a failed decryption.
func TestOpeningUnderMassInflation(t *testing.T) {
	data := blobs(4, 10, 2)
	refused := 0
	for _, spec := range []string{"dup=1", "dup=0.6;replay=0,1"} {
		for seed := int64(1); seed <= 3; seed++ {
			p := Params{
				K: 2, Epsilon: 100, Iterations: 1, GossipRounds: 8, DecryptThreshold: 2,
				Seed: seed, Faults: mustPlan(t, spec),
			}
			packed, oracle := openingRun(t, data, p, false), openingRun(t, data, p, true)
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
						t.Fatalf("%s seed %d: participant %d iteration %d disclosed a share the per-coordinate opening failed", spec, seed, i, it)
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
		t.Fatal("no share outgrew the opening's budget: the plans no longer inflate mass enough to test the refusal")
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
