package fixedpoint

import (
	"errors"
	"fmt"
	"math/big"
)

// SlotLayout packs several fixed-point coordinates into one plaintext of
// the additively-homomorphic ring, the batching lever of homomorphically
// outsourced clustering: every homomorphic operation on a packed
// plaintext acts on all of its slots at once, so encrypts, halvings,
// partial decryptions and wire bytes all shrink by the packing factor.
//
// Layout. A plaintext of plainBits usable bits is split into
// slots = ⌊plainBits/slotBits⌋ fields of slotBits bits each; coordinate j
// of a group occupies bits [j·slotBits, (j+1)·slotBits). Slot widths are
// sized by the caller from the protocol's headroom budget:
//
//	slotBits = magBits + 1 + headBits
//
// where 2^magBits strictly bounds the magnitude of one contribution's
// signed scaled value and headBits is the aggregation headroom (population
// bits plus guard bits) that keeps slot-wise sums from carrying into the
// neighbouring slot.
//
// Signs. The ring has no negative numbers and a packed field cannot use
// the residue-above-M/2 convention (only the top slot would see it), so
// every slot stores v + bias with bias = 2^magBits > |v|: a non-negative
// field whatever the sign of v. Bias bookkeeping under aggregation is
// exact — a push-sum state holds Σᵢ cᵢ·(vᵢ + bias) per slot, where the
// dyadic coefficients cᵢ sum to the state's weight w, so the decoder
// subtracts bias·w (an exact integer whenever the weight's dyadic
// denominator divides the bias; see Unbias).
//
// Halving exactness. Gossip never divides a packed plaintext: a share
// travels as (ciphertext, h) and stands for Dec(c)·2^(T−h), T being the
// pre-scale budget (internal/gossip, internal/core). That needs the
// packed integer at exponent 0 to be a multiple of 2^T, so that
// Dec(c) = packed >> T loses nothing. A slot's per-contribution value is
// v + bias where v carries ≥ T factors of two (the fixedpoint.PreScale
// contract) and bias = 2^magBits with magBits ≥ T, so every slot — and
// hence the whole packed integer — does, and for every h ≤ T the
// decoder's Dec(c) << (T−h) is the slot-aligned integer h exact halvings
// would have produced: slot boundaries, bias bookkeeping and bit budget
// are those of the pre-scaled plaintext, with no crypto-layer changes.
type SlotLayout struct {
	slotBits uint
	magBits  uint
	slots    int
	bias     *big.Int // 2^magBits
	mask     *big.Int // 2^slotBits - 1
	limit    *big.Int // 2^(slots·slotBits): packed values must stay below
}

// ErrSlotOverflow is returned when a value does not fit its slot budget:
// a coordinate at/above the bias on Pack, or a packed plaintext that has
// carried beyond the top slot on Unpack.
var ErrSlotOverflow = errors.New("fixedpoint: slot overflow")

// NewSlotLayout builds a packing of plaintexts with plainBits usable
// bits into slots of magBits magnitude bits (bias = 2^magBits) plus one
// sign-bias bit plus headBits of aggregation headroom. It fails when not
// even one slot fits.
func NewSlotLayout(plainBits int, magBits, headBits uint) (*SlotLayout, error) {
	if plainBits < 1 {
		return nil, fmt.Errorf("fixedpoint: plaintext capacity %d bits", plainBits)
	}
	slotBits := magBits + 1 + headBits
	slots := plainBits / int(slotBits)
	if slots < 1 {
		return nil, fmt.Errorf("fixedpoint: plaintext of %d bits cannot fit one %d-bit slot (magnitude %d + sign 1 + headroom %d)",
			plainBits, slotBits, magBits, headBits)
	}
	one := big.NewInt(1)
	return &SlotLayout{
		slotBits: slotBits,
		magBits:  magBits,
		slots:    slots,
		bias:     new(big.Int).Lsh(one, magBits),
		mask:     new(big.Int).Sub(new(big.Int).Lsh(one, slotBits), one),
		limit:    new(big.Int).Lsh(one, uint(slots)*slotBits),
	}, nil
}

// Slots reports how many coordinates fit one plaintext.
func (l *SlotLayout) Slots() int { return l.slots }

// SlotBits reports the width of one slot.
func (l *SlotLayout) SlotBits() uint { return l.slotBits }

// Bias returns the per-slot sign bias 2^magBits (a fresh copy).
func (l *SlotLayout) Bias() *big.Int { return new(big.Int).Set(l.bias) }

// Groups reports how many packed plaintexts carry coords coordinates:
// ⌈coords/slots⌉.
func (l *SlotLayout) Groups(coords int) int {
	return (coords + l.slots - 1) / l.slots
}

// Pack maps per-coordinate signed scaled integers into packed plaintexts:
// plaintext g holds vs[g·slots+j] + bias in slot j. Each |v| must be
// strictly below the bias (overflow accounting: a violation means the
// caller's magnitude budget was wrong, not a recoverable input). Slots
// beyond len(vs) in the last group are zero — they never held a bias and
// decode must not read them.
func (l *SlotLayout) Pack(vs []*big.Int) ([]*big.Int, error) {
	if len(vs) == 0 {
		return nil, nil
	}
	out := make([]*big.Int, l.Groups(len(vs)))
	field := new(big.Int)
	for g := range out {
		packed := new(big.Int)
		lo := g * l.slots
		hi := lo + l.slots
		if hi > len(vs) {
			hi = len(vs)
		}
		for j, v := range vs[lo:hi] {
			if v == nil {
				return nil, fmt.Errorf("fixedpoint: nil coordinate %d", lo+j)
			}
			if v.CmpAbs(l.bias) >= 0 {
				return nil, fmt.Errorf("%w: |coordinate %d| >= 2^%d", ErrSlotOverflow, lo+j, l.magBits)
			}
			field.Add(v, l.bias)
			field.Lsh(field, uint(j)*l.slotBits)
			packed.Add(packed, field)
		}
		out[g] = packed
	}
	return out, nil
}

// Unpack splits packed plaintexts back into coords raw slot fields, bias
// still included (the aggregated bias is weight-dependent; see Unbias).
// It fails when a plaintext has overflowed past its top slot — the only
// carry the layout can detect; carries between interior slots are caught
// by the caller's plausibility bound on the decoded values.
func (l *SlotLayout) Unpack(packed []*big.Int, coords int) ([]*big.Int, error) {
	if need := l.Groups(coords); len(packed) != need {
		return nil, fmt.Errorf("fixedpoint: %d packed plaintexts for %d coordinates, want %d", len(packed), coords, need)
	}
	out := make([]*big.Int, coords)
	for g, p := range packed {
		if p == nil || p.Sign() < 0 {
			return nil, fmt.Errorf("fixedpoint: invalid packed plaintext %d", g)
		}
		if p.Cmp(l.limit) >= 0 {
			return nil, fmt.Errorf("%w: packed plaintext %d beyond %d slots", ErrSlotOverflow, g, l.slots)
		}
		lo := g * l.slots
		for j := 0; lo+j < coords && j < l.slots; j++ {
			f := new(big.Int).Rsh(p, uint(j)*l.slotBits)
			out[lo+j] = f.And(f, l.mask)
		}
	}
	return out, nil
}

// Unbias removes the aggregated sign bias from a raw slot field: the slot
// holds trueSum + bias·biasWeight, where biasWeight is the sum of the
// dyadic push-sum coefficients of every biased contribution folded into
// the slot (the state's weight, times the number of biased vectors added
// slot-wise — e.g. 2 after the means+noise addition). The product
// bias·biasWeight is computed exactly over rationals; a non-integer
// product means a contribution was halved more often than the bias has
// factors of two — the same budget breach the pre-scale contract guards
// against — and is reported as an error rather than rounded.
func (l *SlotLayout) Unbias(raw *big.Int, biasWeight float64) (*big.Int, error) {
	if raw == nil || raw.Sign() < 0 {
		return nil, errors.New("fixedpoint: invalid raw slot field")
	}
	r := new(big.Rat).SetFloat64(biasWeight)
	if r == nil || r.Sign() < 0 {
		return nil, fmt.Errorf("fixedpoint: invalid bias weight %v", biasWeight)
	}
	r.Mul(r, new(big.Rat).SetInt(l.bias))
	if !r.IsInt() {
		return nil, fmt.Errorf("fixedpoint: bias weight %v exceeds the bias' halving budget", biasWeight)
	}
	return new(big.Int).Sub(raw, r.Num()), nil
}
