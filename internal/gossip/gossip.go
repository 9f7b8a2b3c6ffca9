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
// it provisioned (one factor of two per gossip round, see
// internal/fixedpoint.PreScale): as long as H ≤ T no division ever
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
)

// Ring is the additive structure push-sum requires of its values.
// Implementations must not mutate their arguments.
type Ring[T any] interface {
	// Zero returns the additive identity.
	Zero() T
	// Add returns a + b.
	Add(a, b T) T
	// Double returns a·2^k as a fresh value that never aliases a, even
	// for k = 0 (mutable states rely on that to hand out copies).
	Double(a T, k uint) T
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
// loops — emit, absorb — entirely in place, allocating nothing in steady
// state. Every operation must be value-identical to its immutable
// counterpart (DoubleInPlace to Double, AddInPlace to Add, AddAllInPlace
// to a left fold of Add), so enabling the in-place path never changes a
// trajectory, only its allocation profile.
//
// The path is opt-in per State (see State.SetMutable) because it
// changes the aliasing contract: an in-place state mutates its own
// values, so they must be exclusively owned — never shared with callers
// the way Ring.Clone-style sharing otherwise allows.
type MutRing[T any] interface {
	Ring[T]
	// DoubleInPlace replaces a's value with a·2^k.
	DoubleInPlace(a T, k uint)
	// AddInPlace sets acc = acc + v. Only acc is mutated.
	AddInPlace(acc, v T)
	// AddAllInPlace sets acc = acc + vs[0] + vs[1] + ..., evaluated left
	// to right. Only acc is mutated.
	AddAllInPlace(acc T, vs []T)
	// SetInPlace copies src's value into dst, reusing dst's storage.
	SetInPlace(dst, src T)
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
// ciphertext rings both divisions happen after decryption).
type State[T any] struct {
	ring Ring[T]
	V    []T
	W    float64
	// H is the halving exponent: the maximum number of halvings any
	// contribution held in V has undergone.
	H uint
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
// conservation invariant: state + message = previous state. No value is
// touched: both halves keep the same V under an exponent one higher.
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
// state's values are copied into dst's existing storage. The emitted
// values are then equal to, but never aliased with, the state's (each
// side mutates only its own storage afterwards).
func (s *State[T]) EmitInto(dst *Message[T]) *Message[T] {
	if dst == nil {
		dst = &Message[T]{}
	}
	s.H++
	s.W /= 2
	dst.H, dst.W = s.H, s.W
	if s.mut != nil && len(dst.V) == len(s.V) {
		for i := range s.V {
			s.mut.SetInPlace(dst.V[i], s.V[i])
		}
		return dst
	}
	if cap(dst.V) >= len(s.V) {
		dst.V = dst.V[:len(s.V)]
	} else {
		dst.V = make([]T, len(s.V))
	}
	for i := range s.V {
		if s.mut != nil {
			// Unprepared destination on a mutable state: a sharing Clone
			// (the cipher rings') would alias the emitted message with
			// state values that later in-place operations mutate, so the
			// copy is minted by Double, which never aliases.
			dst.V[i] = s.ring.Double(s.V[i], 0)
		} else {
			dst.V[i] = s.ring.Clone(s.V[i])
		}
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
		if s.mut != nil {
			s.mut.DoubleInPlace(s.V[i], h-s.H)
		} else {
			s.V[i] = s.ring.Double(s.V[i], h-s.H)
		}
	}
	s.H = h
}

// Absorb merges a received message into the state. Whichever side has
// the smaller exponent is doubled up to the other's first; on a mutable
// state the fold happens in place (the message values are only read).
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
			v = s.ring.Double(v, lag)
		}
		if s.mut != nil {
			s.mut.AddInPlace(s.V[i], v)
		} else {
			s.V[i] = s.ring.Add(s.V[i], v)
		}
	}
	s.W += m.W
	return nil
}

// AbsorbAll merges a batch of received messages in one pass — the
// batched exchange a shard worker performs when several same-iteration
// messages are waiting in a node's inbox. The state is raised once to
// the largest exponent in the batch and each coordinate is folded with a
// single accumulator (Ring.AddAll). The result is bit-identical to
// absorbing the messages one by one in order (doubling commutes exactly
// with addition in every ring, float64 rounding included), and the whole
// batch is validated before any state is touched (all-or-nothing on
// malformed input).
func (s *State[T]) AbsorbAll(ms []*Message[T]) error {
	top := s.H
	for _, m := range ms {
		if m == nil {
			return errors.New("gossip: nil message")
		}
		if len(m.V) != len(s.V) {
			return fmt.Errorf("gossip: message dimension %d != state dimension %d", len(m.V), len(s.V))
		}
		if m.H > top {
			top = m.H
		}
	}
	switch len(ms) {
	case 0:
		return nil
	case 1:
		return s.Absorb(ms[0])
	}
	s.raise(top)
	col := s.column(ms)
	for i := range s.V {
		for j, m := range ms {
			col[j] = m.V[i]
			if m.H < top {
				col[j] = s.ring.Double(m.V[i], top-m.H)
			}
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

// Values returns a copy of the current value vector (to be read under
// the exponent H).
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

// Double implements Ring: scaling by a power of two is exact in
// float64, so doubling commutes with every rounding Add performs and a
// State over floats stays bit-identical to one that halved eagerly —
// short of overflow, which is about a thousand unsettled halvings away
// (SimulatePushSum folds the exponent back every round for that reason).
func (FloatRing) Double(a float64, k uint) float64 { return math.Ldexp(a, int(k)) }

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
