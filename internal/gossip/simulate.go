package gossip

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sync"
)

// SimResult captures a standalone push-sum simulation: the per-round
// worst-case relative estimation error (the quantity whose exponential
// decay the paper's Sec. II.A invokes) and the final per-node estimates.
type SimResult struct {
	// MaxRelErr[r] is the maximum over nodes of the relative L2 error of
	// the node's average estimate after round r+1.
	MaxRelErr []float64
	// MeanRelErr[r] is the mean over nodes of the same quantity.
	MeanRelErr []float64
	// Estimates[i] is node i's final estimate of the coordinate-wise
	// network average.
	Estimates [][]float64
	// Messages is the total number of point-to-point messages exchanged.
	Messages int
}

// SimulatePushSum runs synchronous push-sum averaging over the given
// per-node value vectors for the given number of rounds: in each round
// every alive node halves its state and pushes one half to a uniformly
// random peer. failProb is the per-node-per-round probability that a
// node's outgoing message is lost (models crashed/unreachable peers; the
// mass it carried is lost, which is exactly the distortion the paper's
// probabilistic-DP analysis must absorb). Deterministic given rng.
func SimulatePushSum(values [][]float64, rounds int, failProb float64, rng *rand.Rand) (*SimResult, error) {
	n := len(values)
	if n < 2 {
		return nil, errors.New("gossip: need at least 2 nodes")
	}
	if rounds < 1 {
		return nil, fmt.Errorf("gossip: rounds %d < 1", rounds)
	}
	if failProb < 0 || failProb > 1 {
		return nil, fmt.Errorf("gossip: failure probability %v outside [0,1]", failProb)
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	dim := len(values[0])
	truth := make([]float64, dim)
	states := make([]*State[float64], n)
	ring := FloatRing{}
	for i, v := range values {
		if len(v) != dim {
			return nil, fmt.Errorf("gossip: node %d dimension %d != %d", i, len(v), dim)
		}
		st, err := NewState[float64](ring, v, 1)
		if err != nil {
			return nil, err
		}
		states[i] = st
		for j, x := range v {
			truth[j] += x
		}
	}
	for j := range truth {
		truth[j] /= float64(n)
	}
	truthNorm := l2norm(truth)

	res := &SimResult{}
	// Per-node reusable message buffers: within a synchronous round every
	// emitted message is absorbed (or lost) before its sender emits
	// again, so EmitInto can recycle the buffers across rounds and the
	// round loop performs no per-message allocations.
	bufs := make([]*Message[float64], n)
	type send struct {
		to  int
		msg *Message[float64]
	}
	sends := make([]send, 0, n)
	for r := 0; r < rounds; r++ {
		// Synchronous round: all sends computed first, then delivered.
		sends = sends[:0]
		for i := 0; i < n; i++ {
			msg := states[i].EmitInto(bufs[i])
			bufs[i] = msg
			if rng.Float64() < failProb {
				continue // message (and its mass) lost
			}
			sends = append(sends, send{to: uniformPeer(rng, n, i), msg: msg})
		}
		for _, s := range sends {
			if err := states[s.to].Absorb(s.msg); err != nil {
				return nil, err
			}
			res.Messages++
		}
		maxErr, sumErr := 0.0, 0.0
		for i := 0; i < n; i++ {
			settle(states[i])
			e := relErr(states[i], truth, truthNorm)
			if e > maxErr {
				maxErr = e
			}
			sumErr += e
		}
		res.MaxRelErr = append(res.MaxRelErr, maxErr)
		res.MeanRelErr = append(res.MeanRelErr, sumErr/float64(n))
	}
	res.Estimates = make([][]float64, n)
	for i := 0; i < n; i++ {
		res.Estimates[i] = estimate(states[i])
	}
	return res, nil
}

// settle folds a float state's exponent back into its values (V·2^{-H}
// under H = 0). A float64 has only ~1000 doublings of range, and a
// simulation may run longer than that, so SimulatePushSum settles every
// state at the end of every round; scaling by a power of two is exact, so
// the values are the ones eager halving would hold.
func settle(s *State[float64]) {
	for j, v := range s.V {
		s.V[j] = math.Ldexp(v, -int(s.H))
	}
	s.H = 0
}

// estimate reads a settled state.
func estimate(s *State[float64]) []float64 {
	out := make([]float64, len(s.V))
	if s.W == 0 {
		return out
	}
	for j, v := range s.V {
		out[j] = v / s.W
	}
	return out
}

func relErr(s *State[float64], truth []float64, truthNorm float64) float64 {
	est := estimate(s)
	var acc float64
	for j := range truth {
		d := est[j] - truth[j]
		acc += d * d
	}
	if truthNorm == 0 {
		return math.Sqrt(acc)
	}
	return math.Sqrt(acc) / truthNorm
}

func l2norm(v []float64) float64 {
	var acc float64
	for _, x := range v {
		acc += x * x
	}
	return math.Sqrt(acc)
}

// ModRing is the ring of residues mod M (M must be odd, as every
// Damgård–Jurik plaintext modulus is). It is the plaintext-space mirror
// of the ciphertext ring and backs the accounted (crypto-disabled)
// backend so that both backends execute bit-identical gossip arithmetic.
type ModRing struct {
	M *big.Int
}

// NewModRing builds a ModRing for odd modulus M.
func NewModRing(M *big.Int) (*ModRing, error) {
	if M == nil || M.Sign() <= 0 || M.Bit(0) == 0 {
		return nil, errors.New("gossip: modulus must be positive and odd")
	}
	return &ModRing{M: new(big.Int).Set(M)}, nil
}

// Add implements Ring. Operands must be reduced residues (every value
// the ring produces is), so the reduction is one conditional
// subtraction.
func (r *ModRing) Add(acc **big.Int, v *big.Int) {
	a := *acc
	a.Add(a, v)
	if a.Cmp(r.M) >= 0 {
		a.Sub(a, r.M)
	}
}

// AddAll implements Ring: a left fold of Add into one accumulator.
func (r *ModRing) AddAll(acc **big.Int, vs []*big.Int) {
	for _, v := range vs {
		r.Add(acc, v)
	}
}

// modScratch is the working storage of one shift-and-reduce.
type modScratch struct{ shifted, quo, rem big.Int }

var modScratchPool = sync.Pool{New: func() any { return new(modScratch) }}

// Double implements Ring: it shifts once and reduces with one division,
// in pooled scratch, and copies the remainder back, so a value living in
// an arena never grows.
func (r *ModRing) Double(a **big.Int, k uint) {
	v := *a
	s := modScratchPool.Get().(*modScratch)
	s.shifted.Lsh(v, k)
	s.quo.QuoRem(&s.shifted, r.M, &s.rem)
	v.Set(&s.rem)
	modScratchPool.Put(s)
}

// Set implements Ring.
func (r *ModRing) Set(dst **big.Int, src *big.Int) {
	if *dst == nil {
		*dst = new(big.Int)
	}
	(*dst).Set(src)
}
