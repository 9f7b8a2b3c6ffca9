// Package gossip implements the push-sum gossip aggregation protocol of
// Kempe, Dobra and Gehrke (FOCS 2003), the distribution substrate of
// Chiaroscuro (demo paper, Sec. II.A): lightweight, fully decentralized,
// approximate aggregation by periodical point-to-point exchanges whose
// error converges to zero exponentially fast in the number of exchanges.
//
// Chiaroscuro needs the sum protocol twice per iteration — once over
// additively-homomorphic ciphertexts (the encrypted means) and once for
// the encrypted Laplace noise shares. To serve both, the protocol state is
// generic over a Ring: the value type only needs addition and exact
// halving. Two rings are provided here (float64 and *big.Int residues);
// internal/core adds the Damgård–Jurik ciphertext ring.
//
// # Exact halving over encrypted integers
//
// Halving a ciphertext is the homomorphic scalar multiplication by
// 2^{-1} mod n^s, which is exact ring arithmetic. For the final decrypted
// value to decode back to the intended rational, every plaintext is
// pre-scaled by 2^T before the protocol starts (T = total number of
// halvings a contribution can undergo, i.e. the number of rounds); each
// contribution's coefficient then stays a non-negative integer multiple
// of 2^{T-rounds} and the ring element never wraps into "fake negatives".
// See internal/fixedpoint.PreScale.
package gossip

import (
	"errors"
	"fmt"
	"math/rand"
)

// Ring is the additive structure push-sum requires of its values.
// Implementations must not mutate their arguments.
type Ring[T any] interface {
	// Zero returns the additive identity.
	Zero() T
	// Add returns a + b.
	Add(a, b T) T
	// Halve returns the exact half of a (for modular rings, a·2^{-1}).
	Halve(a T) T
	// Clone returns an independent copy of a.
	Clone(a T) T
	// AddAll returns acc + vs[0] + vs[1] + ..., evaluated left to right,
	// without mutating acc or any element of vs. It folds a whole column
	// of message values of a batched exchange in one pass, sparing the
	// intermediate results Add would allocate; the arithmetic must be
	// identical to left-folding Add over vs (same operand order), so
	// batched and sequential absorbs stay bit-identical.
	AddAll(acc T, vs []T) T
}

// MutRing is an optional Ring extension for rings whose values are
// mutable handles (e.g. preallocated big.Int residues from
// internal/vecpool): the push-sum state can then run its per-cycle hot
// loops — halve-and-emit, absorb — entirely in place, allocating
// nothing in steady state. Every operation must be value-identical to
// its immutable counterpart (HalveInPlace to Halve, AddInPlace to Add,
// AddAllInPlace to a left fold of Add), so enabling the in-place path
// never changes a trajectory, only its allocation profile.
//
// The path is opt-in per State (see State.SetMutable) because it
// changes the aliasing contract: an in-place state mutates its own
// values, so they must be exclusively owned — never shared with callers
// the way Ring.Clone-style sharing otherwise allows.
type MutRing[T any] interface {
	Ring[T]
	// HalveInPlace replaces a's value with its exact half.
	HalveInPlace(a T)
	// AddInPlace sets acc = acc + v. Only acc is mutated.
	AddInPlace(acc, v T)
	// AddAllInPlace sets acc = acc + vs[0] + vs[1] + ..., evaluated left
	// to right. Only acc is mutated.
	AddAllInPlace(acc T, vs []T)
	// SetInPlace copies src's value into dst, reusing dst's storage.
	SetInPlace(dst, src T)
}

// Message is the half-share a node pushes to a peer: the value vector and
// the accompanying push-sum weight.
type Message[T any] struct {
	V []T
	W float64
}

// State is one node's push-sum accumulator: a vector of ring values plus
// the scalar weight. The running estimate of the network-wide average of
// coordinate j is V[j]/W (decoded by the caller; for ciphertext rings the
// division happens after decryption).
type State[T any] struct {
	ring Ring[T]
	V    []T
	W    float64
	// mut, when non-nil, routes the hot loops through the ring's
	// in-place operations (see SetMutable).
	mut MutRing[T]
	// col is the AbsorbAll column scratch, retained across batches so a
	// steady-state cycle reuses it instead of allocating.
	col []T
}

// NewState initializes a node's state with its own contribution and
// initial weight (1 for averaging; see package doc of internal/core for
// how Chiaroscuro derives cluster means from averages so that the
// population size cancels).
func NewState[T any](ring Ring[T], values []T, weight float64) (*State[T], error) {
	if ring == nil {
		return nil, errors.New("gossip: nil ring")
	}
	if len(values) == 0 {
		return nil, errors.New("gossip: empty value vector")
	}
	if weight < 0 {
		return nil, fmt.Errorf("gossip: negative weight %v", weight)
	}
	v := make([]T, len(values))
	for i := range values {
		v[i] = ring.Clone(values[i])
	}
	return &State[T]{ring: ring, V: v, W: weight}, nil
}

// SetMutable enables the in-place hot path when the ring implements
// MutRing, and reports whether it did. The caller thereby asserts the
// state's values are exclusively owned (NewState's Clone did not share
// them with anyone who will observe later mutations) — internal/core
// arranges this by building each participant's contribution in its own
// arena. Has no effect on rings without MutRing.
func (s *State[T]) SetMutable() bool {
	if mr, ok := s.ring.(MutRing[T]); ok {
		s.mut = mr
		return true
	}
	return false
}

// Emit halves the node's state and returns the outgoing half as a
// message. The remaining half stays in the state. Push-sum's mass
// conservation invariant: state + message = previous state.
func (s *State[T]) Emit() *Message[T] {
	return s.EmitInto(nil)
}

// EmitInto is Emit writing into a caller-owned message, reusing its
// value buffer when the capacity allows (nil behaves like Emit). Reuse
// is only sound once the previous occupant of dst has been absorbed —
// e.g. the synchronous-round pattern of SimulatePushSum, or any schedule
// where a message is consumed before its sender emits again.
//
// On a mutable state (SetMutable) whose dst arrives fully prepared —
// value vector already the state's length, every slot holding a
// caller-owned mutable value — the emission is allocation-free: the
// state's values are halved in place and copied into dst's existing
// storage. The emitted values are then equal to, but never aliased
// with, the state's (each side mutates only its own storage
// afterwards).
func (s *State[T]) EmitInto(dst *Message[T]) *Message[T] {
	if dst == nil {
		dst = &Message[T]{}
	}
	if s.mut != nil {
		if len(dst.V) == len(s.V) {
			dst.W = s.W / 2
			for i := range s.V {
				s.mut.HalveInPlace(s.V[i])
				s.mut.SetInPlace(dst.V[i], s.V[i])
			}
			s.W /= 2
			return dst
		}
		// Unprepared destination on a mutable state: the immutable
		// fallthrough below would be unsound here, because a sharing
		// Clone (the cipher rings') would alias the emitted message
		// with state values that later in-place operations mutate.
		// Instead, halve into a fresh value for the message and copy it
		// back into the state's own storage — allocating, never
		// aliasing, value- and accounting-identical either way.
		if cap(dst.V) >= len(s.V) {
			dst.V = dst.V[:len(s.V)]
		} else {
			dst.V = make([]T, len(s.V))
		}
		dst.W = s.W / 2
		for i := range s.V {
			h := s.ring.Halve(s.V[i])
			s.mut.SetInPlace(s.V[i], h)
			dst.V[i] = h
		}
		s.W /= 2
		return dst
	}
	if cap(dst.V) >= len(s.V) {
		dst.V = dst.V[:len(s.V)]
	} else {
		dst.V = make([]T, len(s.V))
	}
	dst.W = s.W / 2
	for i := range s.V {
		h := s.ring.Halve(s.V[i])
		s.V[i] = h
		dst.V[i] = s.ring.Clone(h)
	}
	s.W /= 2
	return dst
}

// Absorb merges a received message into the state. On a mutable state
// the fold happens in place (the message values are only read).
func (s *State[T]) Absorb(m *Message[T]) error {
	if m == nil {
		return errors.New("gossip: nil message")
	}
	if len(m.V) != len(s.V) {
		return fmt.Errorf("gossip: message dimension %d != state dimension %d", len(m.V), len(s.V))
	}
	if s.mut != nil {
		for i := range s.V {
			s.mut.AddInPlace(s.V[i], m.V[i])
		}
		s.W += m.W
		return nil
	}
	for i := range s.V {
		s.V[i] = s.ring.Add(s.V[i], m.V[i])
	}
	s.W += m.W
	return nil
}

// AbsorbAll merges a batch of received messages in one pass — the
// batched exchange a shard worker performs when several same-iteration
// messages are waiting in a node's inbox. Each coordinate is folded
// with a single accumulator (Ring.AddAll). The result is bit-identical
// to absorbing the messages one by one in order, and the whole batch is
// validated before any state is touched (all-or-nothing on malformed
// input).
func (s *State[T]) AbsorbAll(ms []*Message[T]) error {
	for _, m := range ms {
		if m == nil {
			return errors.New("gossip: nil message")
		}
		if len(m.V) != len(s.V) {
			return fmt.Errorf("gossip: message dimension %d != state dimension %d", len(m.V), len(s.V))
		}
	}
	switch len(ms) {
	case 0:
		return nil
	case 1:
		return s.Absorb(ms[0])
	}
	col := s.column(ms)
	for i := range s.V {
		for j, m := range ms {
			col[j] = m.V[i]
		}
		if s.mut != nil {
			s.mut.AddAllInPlace(s.V[i], col)
		} else {
			s.V[i] = s.ring.AddAll(s.V[i], col)
		}
	}
	s.releaseColumn(col)
	for _, m := range ms {
		s.W += m.W
	}
	return nil
}

// ReserveBatch grows the batch scratch to hold n-message columns, so an
// allocation-measurement harness can rule out scratch growth entirely
// (ordinary runs let the scratch converge to its working capacity).
func (s *State[T]) ReserveBatch(n int) {
	if cap(s.col) < n {
		s.col = make([]T, 0, n)
	}
}

// column hands out the batch scratch sized for ms, reusing the retained
// buffer when its capacity allows (a steady-state cycle then performs no
// scratch allocation at all).
func (s *State[T]) column(ms []*Message[T]) []T {
	if cap(s.col) >= len(ms) {
		return s.col[:len(ms)]
	}
	s.col = make([]T, len(ms))
	return s.col
}

// releaseColumn zeroes the scratch's value references so the retained
// buffer does not pin absorbed message values until the next batch.
func (s *State[T]) releaseColumn(col []T) {
	var zero T
	for i := range col {
		col[i] = zero
	}
}

// Weight returns the current push-sum weight.
func (s *State[T]) Weight() float64 { return s.W }

// Values returns a copy of the current value vector.
func (s *State[T]) Values() []T {
	out := make([]T, len(s.V))
	for i := range s.V {
		out[i] = s.ring.Clone(s.V[i])
	}
	return out
}

// FloatRing is the cleartext ring over float64, used by the baseline
// simulations and by the accounted (non-encrypted) cipher backend.
type FloatRing struct{}

// Zero implements Ring.
func (FloatRing) Zero() float64 { return 0 }

// Add implements Ring.
func (FloatRing) Add(a, b float64) float64 { return a + b }

// Halve implements Ring.
func (FloatRing) Halve(a float64) float64 { return a / 2 }

// Clone implements Ring.
func (FloatRing) Clone(a float64) float64 { return a }

// AddAll implements Ring. Float addition is not associative, so the
// left-to-right order is load-bearing for bit-identity with sequential
// absorbs.
func (FloatRing) AddAll(acc float64, vs []float64) float64 {
	for _, v := range vs {
		acc += v
	}
	return acc
}

// uniformPeer draws a random peer for node i among n nodes, excluding i.
func uniformPeer(rng *rand.Rand, n, i int) int {
	j := rng.Intn(n - 1)
	if j >= i {
		j++
	}
	return j
}
