package core

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
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

// swapLayout makes r pack its encrypted side with l instead of its own
// layout. Only for a run none of whose ciphertexts exist yet.
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

// packWide packs signed integers as the run packs them at encryption —
// Horner's rule at the layout's width, sign-wrapped — but without
// PackInto's bound on one contribution: the integers may be sums, or
// pre-scaled.
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

// packedVector encrypts ys packed as the run packs them: the push-sum
// vector whose opening holds the sums ys.
func packedVector(t *testing.T, r *runShared, ys []*big.Int) []Cipher {
	t.Helper()
	vals, err := r.suite.NewCipherVector(r.sideCiphers)
	if err != nil {
		t.Fatal(err)
	}
	for g, m := range packWide(t, r, ys) {
		if err := r.suite.EncryptInto(vals[g], m); err != nil {
			t.Fatal(err)
		}
	}
	return vals
}

// openingOf is a copy of a frozen push-sum vector, for the tests that
// open one without a participant (frozenOpening drives freezeOpening).
func openingOf(vals []Cipher) []Cipher {
	cts := make([]Cipher, len(vals))
	for i, v := range vals {
		cts[i] = new(big.Int).Set(v)
	}
	return cts
}

// frozenOpening runs step 2c (freezeOpening) twice on a participant
// whose push-sum vector is vals, with r.parityEmits set to parity, and
// returns the first opening. Each must be a copy of vals that aliases
// none of its ciphertexts and costs no homomorphic operation, carried
// by the request of the participant's iteration. Under parityEmits both
// are the participant's own opening and request; otherwise each freeze
// gets fresh storage and leaves the earlier request intact.
func frozenOpening(t *testing.T, r *runShared, vals []Cipher, parity bool) []Cipher {
	t.Helper()
	saved := r.parityEmits
	defer func() { r.parityEmits = saved }()
	r.parityEmits = parity
	pt := r.newParticipant(0)
	means, err := r.newMeans(vals, 1)
	if err != nil {
		t.Fatal(err)
	}
	pt.diptych.Means = means
	var first []Cipher
	var firstReq *decryptRequest
	for freeze := 0; freeze < 2; freeze++ {
		before := r.suite.Counts()
		pt.freezeOpening()
		if ops := opCountsMinus(r.suite.Counts(), before); ops != (OpCounts{}) {
			t.Fatalf("parity=%v freeze %d: opening cost %+v, want nothing", parity, freeze, ops)
		}
		opening := pt.pendingCT
		if len(opening) != r.sideCiphers || &opening[0] == &vals[0] {
			t.Fatalf("parity=%v freeze %d: opening of %d ciphertexts, want a copy of the %d", parity, freeze, len(opening), r.sideCiphers)
		}
		for g, c := range opening {
			for _, v := range vals {
				if c == v {
					t.Fatalf("parity=%v freeze %d: opening ciphertext %d is a push-sum ciphertext", parity, freeze, g)
				}
			}
			if c.Cmp(vals[g]) != 0 {
				t.Fatalf("parity=%v freeze %d: opening ciphertext %d differs from the push-sum vector", parity, freeze, g)
			}
		}
		if pt.req == nil || pt.req.Iter != pt.iter || &pt.req.Ciphers[0] != &opening[0] {
			t.Fatalf("parity=%v freeze %d: the request does not carry the opening of iteration %d", parity, freeze, pt.iter)
		}
		if parity != (pt.req == &pt.ownReq) {
			t.Fatalf("parity=%v freeze %d: request is the participant's own: %v", parity, freeze, pt.req == &pt.ownReq)
		}
		if freeze == 0 {
			first, firstReq = opening, pt.req
			continue
		}
		if parity != (&opening[0] == &first[0]) || parity != (opening[0] == first[0]) || parity != (pt.req == firstReq) {
			t.Fatalf("parity=%v: the second freeze reused the first's storage: %v, want %v", parity, &opening[0] == &first[0], parity)
		}
		if !parity && &firstReq.Ciphers[0] != &first[0] {
			t.Fatal("a fresh freeze rewrote the earlier request")
		}
	}
	return first
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
	plains := make([]*big.Int, len(cts))
	for i := range plains {
		plains[i] = new(big.Int)
	}
	if err := r.suite.CombineColumnsInto(plains, sets); err != nil {
		t.Fatal(err)
	}
	return plains
}

// perCoordinate is the protocol packing replaced, kept as the oracle:
// the sums ys encrypted one ciphertext per coordinate, one threshold
// decryption per coordinate, sign-unwrapped (decoding then shifts by
// what is left of the halving budget).
func perCoordinate(t *testing.T, r *runShared, ys []*big.Int) []*big.Int {
	t.Helper()
	cts := make([]Cipher, len(ys))
	for j, y := range ys {
		c, err := r.suite.Encrypt(new(big.Int).Mod(y, r.plainMod))
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
// packed vector's opening discloses the integers — and the Float64bits —
// per-coordinate ciphertexts disclose, for no homomorphic operation at
// all: freezeOpening copies the vector (see frozenOpening).
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
				vals := packedVector(t, r, ys)
				var opening []Cipher
				for _, parity := range []bool{true, false} {
					opening = frozenOpening(t, r, vals, parity)
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
			plains := openAll(t, r, openingOf(packedVector(t, r, ys)))
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
			plains := openAll(t, r, openingOf(packedVector(t, r, ys)))
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

// twoSided is the encoding the noise fold replaced, kept as the oracle:
// the values and the noise shares each fixed-point-encoded, packed and
// sign-wrapped as a side of their own, and the two sides added modulo M
// — the plaintexts step 2c's homomorphic addition of the two sides
// opened.
func twoSided(t *testing.T, r *runShared, vals, noises []float64) []*big.Int {
	t.Helper()
	sums := make([]*big.Int, r.sideCiphers)
	for g := range sums {
		sums[g] = new(big.Int)
	}
	for _, xs := range [2][]float64{vals, noises} {
		coords := make([]*big.Int, len(xs))
		for i, x := range xs {
			v, err := r.codec.Encode(x)
			if err != nil {
				t.Fatal(err)
			}
			coords[i] = v
		}
		side, err := r.layout.Pack(coords)
		if err != nil {
			t.Fatal(err)
		}
		for g, m := range side {
			if err := fixedpoint.WrapSignedInPlace(m, r.plainMod, r.halfMod); err != nil {
				t.Fatal(err)
			}
			sums[g].Add(sums[g], m).Mod(sums[g], r.plainMod)
		}
	}
	return sums
}

// foldContributions are the (values, noise shares) pairs the fold is
// checked on: the envelope's four corners — every value at 0 or at
// coordBound, every share at ±noiseBound — the corners mixed coordinate
// by coordinate, and random draws inside the envelope.
func foldContributions(r *runShared, coordBound float64, rng *rand.Rand) [][2][]float64 {
	pair := func(f func(i int) (float64, float64)) [2][]float64 {
		vals, noises := make([]float64, r.sideLen), make([]float64, r.sideLen)
		for i := range vals {
			vals[i], noises[i] = f(i)
		}
		return [2][]float64{vals, noises}
	}
	corner := func(i int) (float64, float64) {
		return float64(i/2%2) * coordBound, float64(2*(i%2)-1) * r.noiseBound
	}
	out := [][2][]float64{
		pair(func(int) (float64, float64) { return 0, -r.noiseBound }),
		pair(func(int) (float64, float64) { return 0, r.noiseBound }),
		pair(func(int) (float64, float64) { return coordBound, -r.noiseBound }),
		pair(func(int) (float64, float64) { return coordBound, r.noiseBound }),
		pair(corner),
		pair(func(i int) (float64, float64) { return corner(i + 1) }),
	}
	for k := 0; k < 2; k++ {
		out = append(out, pair(func(int) (float64, float64) {
			return rng.Float64() * coordBound, (2*rng.Float64() - 1) * r.noiseBound
		}))
	}
	return out
}

// TestNoiseFoldMatchesTwoSided is the exactness property of adding each
// noise share to its contribution before encryption: on both backends,
// with and without the inertia aggregate, at 1, 2 and 20 slots per
// ciphertext under the run's own slot width, every contribution in the
// envelope — its corners included — encrypts without a slot overflow
// (stepAssign panics on one) and decrypts to exactly the plaintexts the
// two-sided encoding's step-2c sum opened.
func TestNoiseFoldMatchesTwoSided(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, base := range []struct {
		name   string
		params Params
		slots  []int // the slot counts checked on this key
	}{
		{"plain", Params{K: 2, Epsilon: 100, Iterations: 2, GossipRounds: 8, DecryptThreshold: 2}, []int{1, 2, 20}},
		{"dj256", Params{K: 2, Epsilon: 100, Iterations: 2, GossipRounds: 8, DecryptThreshold: 2,
			Backend: BackendDamgardJurik, ModulusBits: 256}, []int{1, 2}},
		{"dj1024", Params{K: 2, Epsilon: 100, Iterations: 2, GossipRounds: 8, DecryptThreshold: 2,
			Backend: BackendDamgardJurik, ModulusBits: 1024}, []int{20}},
	} {
		for _, inertia := range []bool{false, true} {
			p := base.params
			p.TrackInertia = inertia
			for _, slots := range base.slots {
				t.Run(fmt.Sprintf("%s inertia=%v S=%d", base.name, inertia, slots), func(t *testing.T) {
					r := openTestRun(t, blobs(5, 10, 2), p)
					width := slotWidth(t, r.layout)
					if r.layout.Slots() < slots {
						t.Fatalf("the run packs %d slots per ciphertext, want at least %d", r.layout.Slots(), slots)
					}
					coordBound, _ := r.params.noiseEnvelope(r.dim, r.epsSched)
					l, err := slotLayout(slots*int(width), r.population, coordBound, r.noiseBound, r.params.FracBits, r.preScale)
					if err != nil || l.Slots() != slots {
						t.Fatalf("layout of %d slots at width %d: %v", slots, width, err)
					}
					swapLayout(r, l)
					pt := r.newParticipant(0)
					s := r.newCodecScratch()
					for k, c := range foldContributions(r, coordBound, rng) {
						got, err := pt.encryptSide(s, c[0], c[1])
						if err != nil {
							t.Fatalf("contribution %d: %v", k, err)
						}
						if len(got) != r.sideCiphers {
							t.Fatalf("contribution %d: %d ciphertexts, want %d", k, len(got), r.sideCiphers)
						}
						want := twoSided(t, r, c[0], c[1])
						for g, m := range openAll(t, r, got) {
							if m.Cmp(want[g]) != 0 {
								t.Fatalf("contribution %d group %d: plaintext %s, two-sided %s", k, g, m, want[g])
							}
						}
					}
				})
			}
		}
	}
}
