// Package gossip implements the push-sum gossip aggregation protocol of
// Kempe, Dobra and Gehrke (FOCS 2003), the distribution substrate of
// Chiaroscuro (demo paper, Sec. II.A): lightweight, fully decentralized,
// approximate aggregation by periodical point-to-point exchanges whose
// error converges to zero exponentially fast in the number of exchanges.
//
// Chiaroscuro needs the sum protocol twice per iteration — once over
// additively-homomorphic ciphertexts (the encrypted means) and once for
// the encrypted Laplace noise shares. To serve both, the protocol state is
// generic over a Ring: the value type only needs addition and doubling.
// Two rings are provided here (float64 and *big.Int residues);
// internal/core adds the Damgård–Jurik ciphertext ring.
//
// # The halving exponent travels beside the values
//
// Push-sum halves a node's share at every exchange. Dividing an
// encrypted integer by two is a full-width modular exponentiation (the
// scalar 2^{-1} mod n^s has as many bits as the modulus), so the division
// is never performed on the values. A State — and every Message it
// emits — is a pair (V, H): the share of coordinate j it represents is
// V[j]·2^{-H}. Emit is H++ on both halves. Merging a message with a
// smaller exponent first doubles its values up to the state's exponent
// (and a state lagging behind a message doubles itself up to the
// message's), which costs Δ = |H₁−H₂| ring doublings per value —
// modular squarings of a ciphertext, zero in a synchronized round, a
// handful after a late synchronization. The invariant, by induction over
// Emit and Absorb: H is the maximum number of halvings undergone by any
// contribution the state holds.
//
// For the share to be an integer that decodes back to the intended
// rational, the caller decodes V·2^{T-H} where T is the halving budget
// it provisioned (one factor of two per gossip round plus slack, the
// halving budget of internal/core): as long as H ≤ T no division ever
// happens, anywhere, and the result is exactly what eager halving of a
// 2^T-pre-scaled plaintext would have produced. H > T is the budget
// breach eager halving would have turned into a wrapped residue; here it
// is an integer comparison the decoder makes before trusting the value.
package gossip

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Ring is the additive structure push-sum requires of its values, in
// place: every operation writes into a slot the caller owns (a State's
// value, a Message's) and only reads its other arguments. Handle types
// (*big.Int residues, ciphertexts) are mutated through the slot's
// handle; plain values (float64) are overwritten in the slot.
type Ring[T any] interface {
	// Add sets *acc = *acc + v.
	Add(acc *T, v T)
	// AddAll sets *acc = *acc + vs[0] + vs[1] + ..., evaluated left to
	// right. It folds a whole column of message values of a batched
	// exchange in one pass; the arithmetic must be identical to
	// left-folding Add over vs (same operand order), so batched and
	// sequential absorbs stay bit-identical.
	AddAll(acc *T, vs []T)
	// Double sets *a = *a·2^k.
	Double(a *T, k uint)
	// Set copies src's value into the slot dst, reusing the storage dst
	// already holds. An empty slot (the zero T) receives a fresh value
	// that shares nothing with src: the ring's only allocation.
	Set(dst *T, src T)
}

// Message is the half-share a node pushes to a peer: the value vector,
// its halving exponent (the share is V·2^{-H}) and the accompanying
// push-sum weight.
type Message[T any] struct {
	V []T
	W float64
	H uint
}

// State is one node's push-sum accumulator: a vector of ring values with
// their common halving exponent, plus the scalar weight. The node's share
// of coordinate j is V[j]·2^{-H}, and its running estimate of the
// network-wide average is that share over W (decoded by the caller; for
// ciphertext rings both divisions happen after decryption). Every
// operation mutates V in place; nothing else may hold V's values.
type State[T any] struct {
	ring Ring[T]
	V    []T
	W    float64
	// H is the halving exponent: the maximum number of halvings any
	// contribution held in V has undergone.
	H uint
}

// NewState initializes a node's state with its own contribution and
// initial weight (1 for averaging; see package doc of internal/core for
// how Chiaroscuro derives cluster means from averages so that the
// population size cancels). The state takes ownership of the values —
// the slice is copied, handle values are not — so the caller must not
// read or write them afterwards.
func NewState[T any](ring Ring[T], values []T, weight float64) (*State[T], error) {
	s := &State[T]{}
	if err := s.Reinit(ring, values, weight); err != nil {
		return nil, err
	}
	return s, nil
}

// Reinit re-arms s in place as the state NewState(ring, values, weight)
// builds, under the same ownership rule: the value slice's storage is
// reused, so a state re-armed for every new contribution allocates
// nothing once grown. The previous values are dropped, not read. On
// error s is left as it was.
func (s *State[T]) Reinit(ring Ring[T], values []T, weight float64) error {
	if ring == nil {
		return errors.New("gossip: nil ring")
	}
	if len(values) == 0 {
		return errors.New("gossip: empty value vector")
	}
	if weight < 0 {
		return fmt.Errorf("gossip: negative weight %v", weight)
	}
	clear(s.V) // pin none of the previous values beyond the new length
	s.ring = ring
	s.V = append(s.V[:0], values...)
	s.W, s.H = weight, 0
	return nil
}

// Emit halves the node's state and returns the outgoing half as a
// message in fresh storage. The remaining half stays in the state.
// Push-sum's mass conservation invariant: state + message = previous
// state. No value is touched: both halves keep the same V under an
// exponent one higher.
func (s *State[T]) Emit() *Message[T] {
	return s.EmitInto(nil)
}

// EmitInto is Emit writing into a caller-owned message (nil behaves like
// Emit): the state's values are copied into the storage dst's slots
// already hold, so a message reused across emissions allocates nothing.
// Reuse is only sound once the previous occupant of dst has been
// consumed — e.g. the synchronous-round pattern of SimulatePushSum, or
// any schedule where a message is absorbed before its sender emits into
// it again.
func (s *State[T]) EmitInto(dst *Message[T]) *Message[T] {
	if dst == nil {
		dst = &Message[T]{}
	}
	s.H++
	s.W /= 2
	dst.H, dst.W = s.H, s.W
	if cap(dst.V) >= len(s.V) {
		dst.V = dst.V[:len(s.V)]
	} else {
		dst.V = make([]T, len(s.V))
	}
	for i := range s.V {
		s.ring.Set(&dst.V[i], s.V[i])
	}
	return dst
}

// raise doubles the state's values up to exponent h ≥ s.H, leaving the
// share V·2^{-H} unchanged.
func (s *State[T]) raise(h uint) {
	if h == s.H {
		return
	}
	for i := range s.V {
		s.ring.Double(&s.V[i], h-s.H)
	}
	s.H = h
}

// lifted returns v·2^k in fresh storage: a message value lagging behind
// the state, aligned without touching the message.
func (s *State[T]) lifted(v T, k uint) T {
	var out T
	s.ring.Set(&out, v)
	s.ring.Double(&out, k)
	return out
}

// Absorb merges a received message into the state. Whichever side has
// the smaller exponent is doubled up to the other's first; the message
// values are only read.
func (s *State[T]) Absorb(m *Message[T]) error {
	if m == nil {
		return errors.New("gossip: nil message")
	}
	if len(m.V) != len(s.V) {
		return fmt.Errorf("gossip: message dimension %d != state dimension %d", len(m.V), len(s.V))
	}
	if m.H > s.H {
		s.raise(m.H)
	}
	lag := s.H - m.H
	for i := range s.V {
		v := m.V[i]
		if lag > 0 {
			v = s.lifted(v, lag)
		}
		s.ring.Add(&s.V[i], v)
	}
	s.W += m.W
	return nil
}

// AbsorbAll merges a batch of received messages in one pass — the
// batched exchange a shard worker performs when several same-iteration
// messages are waiting in a node's inbox. The state is raised once to
// the largest exponent in the batch and each coordinate is folded with a
// single accumulator (Ring.AddAll) over a column of the batch's values.
// The result is bit-identical to absorbing the messages one by one in
// order (doubling commutes exactly with addition in every ring, float64
// rounding included), and the whole batch is validated before any state
// is touched (all-or-nothing on malformed input).
//
// col is the caller's column storage: it is grown when shorter than the
// batch and returned emptied — its value references cleared, so it pins
// no absorbed value — for the next batch. A caller that keeps it
// allocates nothing once it has held its largest batch.
func (s *State[T]) AbsorbAll(ms []*Message[T], col []T) ([]T, error) {
	top := s.H
	for _, m := range ms {
		if m == nil {
			return col, errors.New("gossip: nil message")
		}
		if len(m.V) != len(s.V) {
			return col, fmt.Errorf("gossip: message dimension %d != state dimension %d", len(m.V), len(s.V))
		}
		if m.H > top {
			top = m.H
		}
	}
	switch len(ms) {
	case 0:
		return col, nil
	case 1:
		return col, s.Absorb(ms[0])
	}
	s.raise(top)
	col = slices.Grow(col[:0], len(ms))[:len(ms)]
	for i := range s.V {
		for j, m := range ms {
			col[j] = m.V[i]
			if m.H < top {
				col[j] = s.lifted(m.V[i], top-m.H)
			}
		}
		s.ring.AddAll(&s.V[i], col)
	}
	clear(col)
	for _, m := range ms {
		s.W += m.W
	}
	return col[:0], nil
}

// Weight returns the current push-sum weight.
func (s *State[T]) Weight() float64 { return s.W }

// Values returns a copy of the current value vector (to be read under
// the exponent H) in fresh storage: later operations on the state never
// reach it.
func (s *State[T]) Values() []T {
	out := make([]T, len(s.V))
	for i := range s.V {
		s.ring.Set(&out[i], s.V[i])
	}
	return out
}

// FloatRing is the cleartext ring over float64, used by the baseline
// simulations: its slots are the float64 values themselves.
type FloatRing struct{}

// Add implements Ring.
func (FloatRing) Add(acc *float64, v float64) { *acc += v }

// AddAll implements Ring. Float addition is not associative, so the
// left-to-right order is load-bearing for bit-identity with sequential
// absorbs.
func (FloatRing) AddAll(acc *float64, vs []float64) {
	for _, v := range vs {
		*acc += v
	}
}

// Double implements Ring: scaling by a power of two is exact in
// float64, so doubling commutes with every rounding Add performs and a
// State over floats stays bit-identical to one that halved eagerly —
// short of overflow, which is about a thousand unsettled halvings away
// (SimulatePushSum folds the exponent back every round for that reason).
func (FloatRing) Double(a *float64, k uint) { *a = math.Ldexp(*a, int(k)) }

// Set implements Ring.
func (FloatRing) Set(dst *float64, src float64) { *dst = src }

// uniformPeer draws a random peer for node i among n nodes, excluding i.
func uniformPeer(rng *rand.Rand, n, i int) int {
	j := rng.Intn(n - 1)
	if j >= i {
		j++
	}
	return j
}
