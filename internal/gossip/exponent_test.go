package gossip

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"chiaroscuro/internal/vecpool"
)

// testModulus is an odd 320-bit modulus matching the accounted backend's
// plaintext ring width.
func testModulus() *big.Int {
	m := new(big.Int).Lsh(big.NewInt(1), 320)
	return m.Sub(m, big.NewInt(1))
}

// eager is the reference the exponent representation is held against:
// push-sum as it ran before the halving moved beside the values — every
// Emit divides every value by two, nothing carries an exponent.
type eager[T any] struct {
	v     []T
	w     float64
	halve func(T) T
	add   func(a, b T) T
}

func (e *eager[T]) emit() *eager[T] {
	out := &eager[T]{v: make([]T, len(e.v)), halve: e.halve, add: e.add}
	for i := range e.v {
		e.v[i] = e.halve(e.v[i])
		out.v[i] = e.v[i]
	}
	e.w /= 2
	out.w = e.w
	return out
}

func (e *eager[T]) absorb(ms ...*eager[T]) {
	for _, m := range ms {
		for i := range e.v {
			e.v[i] = e.add(e.v[i], m.v[i])
		}
	}
	for _, m := range ms {
		e.w += m.w
	}
}

// driveAgainstEager runs one random emit / absorb / batched-absorb
// schedule over n nodes twice — State[T] and the eager reference — with
// deliberately unsynchronized senders (a node emits 0–3 times between
// deliveries and messages are held back at random), so exponents skew in
// both directions. Held messages outlive later in-place mutations of
// their sender, so an emission sharing storage with its state would show
// up as a divergence. check is called on every node after every step.
func driveAgainstEager[T any](t *testing.T, rng *rand.Rand, ring Ring[T], initial [][]T,
	halve func(T) T, add func(a, b T) T, check func(step int, s *State[T], e *eager[T])) {
	t.Helper()
	n := len(initial)
	states := make([]*State[T], n)
	refs := make([]*eager[T], n)
	for i, v := range initial {
		ref := &eager[T]{v: make([]T, len(v)), w: 1, halve: halve, add: add}
		for j := range v {
			ring.Set(&ref.v[j], v[j])
		}
		refs[i] = ref
		st, err := NewState[T](ring, v, 1) // takes ownership of v
		if err != nil {
			t.Fatal(err)
		}
		states[i] = st
	}
	type flight struct {
		m *Message[T]
		e *eager[T]
	}
	held := make([][]flight, n) // per destination
	for step := 0; step < 300; step++ {
		i := rng.Intn(n)
		switch rng.Intn(3) {
		case 0: // emit 1–3 times toward random peers; delivery comes later
			for k := 1 + rng.Intn(3); k > 0; k-- {
				to := uniformPeer(rng, n, i)
				held[to] = append(held[to], flight{states[i].Emit(), refs[i].emit()})
			}
		case 1: // deliver one held message
			if len(held[i]) == 0 {
				continue
			}
			k := rng.Intn(len(held[i]))
			f := held[i][k]
			held[i] = append(held[i][:k], held[i][k+1:]...)
			if err := states[i].Absorb(f.m); err != nil {
				t.Fatal(err)
			}
			refs[i].absorb(f.e)
		case 2: // deliver everything held as one batch
			ms := make([]*Message[T], len(held[i]))
			es := make([]*eager[T], len(held[i]))
			for k, f := range held[i] {
				ms[k], es[k] = f.m, f.e
			}
			held[i] = nil
			if _, err := states[i].AbsorbAll(ms, nil); err != nil {
				t.Fatal(err)
			}
			refs[i].absorb(es...)
		}
		for j := range states {
			check(step, states[j], refs[j])
		}
	}
}

// TestExponentStateMatchesEagerHalvingMod is the exactness property on
// the modular ring: under any schedule, V·2^{-H} is the residue eager
// halving by 2^{-1} mod M computes, and the exponent never falls behind
// the deepest contribution — so decoding V·2^{T-H} is exact precisely
// when eager halving of a 2^T-pre-scaled value was. The states run over
// ordinary big.Ints and over vecpool arena residues (the accounted
// backend's storage, whose fixed capacity the in-place arithmetic must
// respect).
func TestExponentStateMatchesEagerHalvingMod(t *testing.T) {
	ring, err := NewModRing(testModulus())
	if err != nil {
		t.Fatal(err)
	}
	inv2 := new(big.Int).ModInverse(big.NewInt(2), ring.M)
	halve := func(a *big.Int) *big.Int {
		out := new(big.Int).Mul(a, inv2)
		return out.Mod(out, ring.M)
	}
	add := func(a, b *big.Int) *big.Int {
		out := new(big.Int).Add(a, b)
		return out.Mod(out, ring.M)
	}
	for _, arena := range []bool{false, true} {
		rng := rand.New(rand.NewSource(11))
		initial := make([][]*big.Int, 5)
		for i := range initial {
			// Signed contributions, wrapped as the protocol wraps them.
			initial[i] = []*big.Int{
				new(big.Int).Rand(rng, big.NewInt(1<<40)),
				new(big.Int).Sub(ring.M, new(big.Int).Rand(rng, big.NewInt(1<<40))),
				new(big.Int),
			}
			if arena {
				a, err := vecpool.NewResidueArena(len(initial[i]), ring.M.BitLen())
				if err != nil {
					t.Fatal(err)
				}
				for j, v := range initial[i] {
					initial[i][j] = a.Int(j).Set(v)
				}
			}
		}
		driveAgainstEager[*big.Int](t, rng, ring, initial, halve, add,
			func(step int, s *State[*big.Int], e *eager[*big.Int]) {
				if s.W != e.w {
					t.Fatalf("arena=%v step %d: weight %v, eager %v", arena, step, s.W, e.w)
				}
				for j := range s.V {
					// V = e·2^H  ⇔  V·2^{-H} = e.
					want := new(big.Int).Set(e.v[j])
					ring.Double(&want, s.H)
					if s.V[j].Cmp(want) != 0 {
						t.Fatalf("arena=%v step %d coord %d: V=%v under H=%d, eager·2^H=%v", arena, step, j, s.V[j], s.H, want)
					}
				}
			})
	}
}

// TestExponentStateMatchesEagerHalvingFloat is the same property where
// arithmetic rounds: doubling is exact in float64, so it commutes with
// every rounding an addition performs and the shares agree to the bit.
func TestExponentStateMatchesEagerHalvingFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	initial := make([][]float64, 6)
	for i := range initial {
		initial[i] = []float64{rng.NormFloat64(), rng.Float64() * 1e6, -rng.Float64()}
	}
	driveAgainstEager[float64](t, rng, FloatRing{}, initial,
		func(a float64) float64 { return a / 2 },
		func(a, b float64) float64 { return a + b },
		func(step int, s *State[float64], e *eager[float64]) {
			if s.W != e.w {
				t.Fatalf("step %d: weight %v, eager %v", step, s.W, e.w)
			}
			for j, v := range s.V {
				if got := math.Ldexp(v, -int(s.H)); math.Float64bits(got) != math.Float64bits(e.v[j]) {
					t.Fatalf("step %d coord %d: share %v, eager %v", step, j, got, e.v[j])
				}
			}
		})
}

// TestSimulatePushSumMatchesEagerReference pins SimulatePushSum to what
// it computed when Emit divided: the same rounds on the same random
// stream with eager float halving, compared by bit pattern — estimates
// and error curves — with and without message loss, and past the ~1000
// rounds at which a float carrying every halving as an unsettled exponent
// would overflow.
func TestSimulatePushSumMatchesEagerReference(t *testing.T) {
	for _, tc := range []struct {
		rounds   int
		failProb float64
	}{{45, 0}, {45, 0.2}, {1100, 0}, {1100, 0.2}} {
		rounds, failProb := tc.rounds, tc.failProb
		vrng := rand.New(rand.NewSource(21))
		values := make([][]float64, 40)
		for i := range values {
			values[i] = []float64{vrng.Float64() * 100, vrng.NormFloat64(), float64(i)}
		}
		got, err := SimulatePushSum(values, rounds, failProb, rand.New(rand.NewSource(77)))
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(77))
		n, dim := len(values), len(values[0])
		v := make([][]float64, n)
		w := make([]float64, n)
		truth := make([]float64, dim)
		for i := range values {
			v[i] = append([]float64(nil), values[i]...)
			w[i] = 1
			for j, x := range values[i] {
				truth[j] += x
			}
		}
		for j := range truth {
			truth[j] /= float64(n)
		}
		truthNorm := l2norm(truth)
		var maxErrs []float64
		type send struct {
			to int
			v  []float64
			w  float64
		}
		for r := 0; r < rounds; r++ {
			var sends []send
			for i := 0; i < n; i++ {
				for j := range v[i] {
					v[i][j] /= 2
				}
				w[i] /= 2
				if rng.Float64() < failProb {
					continue
				}
				sends = append(sends, send{uniformPeer(rng, n, i), append([]float64(nil), v[i]...), w[i]})
			}
			for _, s := range sends {
				for j := range s.v {
					v[s.to][j] += s.v[j]
				}
				w[s.to] += s.w
			}
			maxErr := 0.0
			for i := 0; i < n; i++ {
				var acc float64
				for j := range truth {
					d := v[i][j]/w[i] - truth[j]
					acc += d * d
				}
				if e := math.Sqrt(acc) / truthNorm; e > maxErr {
					maxErr = e
				}
			}
			maxErrs = append(maxErrs, maxErr)
		}
		for i := range v {
			for j := range v[i] {
				if want := v[i][j] / w[i]; math.IsNaN(want) || math.IsInf(want, 0) {
					t.Fatalf("rounds=%d failProb=%v: reference estimate %v is not finite", rounds, failProb, want)
				} else if math.Float64bits(got.Estimates[i][j]) != math.Float64bits(want) {
					t.Fatalf("rounds=%d failProb=%v node %d coord %d: estimate %v, eager reference %v", rounds, failProb, i, j, got.Estimates[i][j], want)
				}
			}
		}
		for r := range maxErrs {
			if math.Float64bits(got.MaxRelErr[r]) != math.Float64bits(maxErrs[r]) {
				t.Fatalf("rounds=%d failProb=%v round %d: max error %v, eager reference %v", rounds, failProb, r, got.MaxRelErr[r], maxErrs[r])
			}
		}
	}
}
