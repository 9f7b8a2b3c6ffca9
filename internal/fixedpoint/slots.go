package fixedpoint

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"
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
// denominator divides the bias; see BiasOffset).
//
// Halving exactness. Gossip never divides a packed plaintext: a share
// travels as (ciphertext, h) and stands for Dec(c)·2^(T−h), T being the
// pre-scale budget (internal/gossip, internal/core). That needs the
// packed integer at exponent 0 to be a multiple of 2^T, so that
// Dec(c) = packed >> T loses nothing. A slot's per-contribution value is
// v + bias where v carries ≥ T factors of two (the caller packs every
// coordinate at its pre-scaled magnitude, a multiple of 2^T) and
// bias = 2^magBits with magBits ≥ T, so every slot — and
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

// Groups reports how many packed plaintexts carry coords coordinates:
// ⌈coords/slots⌉.
func (l *SlotLayout) Groups(coords int) int {
	return (coords + l.slots - 1) / l.slots
}

// Pack maps per-coordinate signed scaled integers into fresh packed
// plaintexts; see PackInto.
func (l *SlotLayout) Pack(vs []*big.Int) ([]*big.Int, error) {
	if len(vs) == 0 {
		return nil, nil
	}
	out := make([]*big.Int, l.Groups(len(vs)))
	for g := range out { // a group's full width up front: Horner's rule grows it
		out[g] = new(big.Int).SetBits(make([]big.Word, 0, len(l.limit.Bits())+1))
	}
	if err := l.PackInto(out, vs); err != nil {
		return nil, err
	}
	return out, nil
}

// PackInto maps per-coordinate signed scaled integers into the packed
// plaintexts dst, one non-nil integer per group (Groups(len(vs)) of them,
// none aliasing vs): plaintext g holds vs[g·slots+j] + bias in slot j.
// Each |v| must be strictly below the bias (overflow accounting: a
// violation means the caller's magnitude budget was wrong, not a
// recoverable input). Slots beyond len(vs) in the last group are zero —
// they never held a bias and decode must not read them. A group is built
// by Horner's rule from its top slot down, so it needs no temporary and
// a warmed dst is reused without allocating.
func (l *SlotLayout) PackInto(dst, vs []*big.Int) error {
	if need := l.Groups(len(vs)); len(dst) != need {
		return fmt.Errorf("fixedpoint: %d packed plaintexts for %d coordinates, want %d", len(dst), len(vs), need)
	}
	for g, p := range dst {
		lo := g * l.slots
		hi := min(lo+l.slots, len(vs))
		for j, v := range vs[lo:hi] {
			if v == nil {
				return fmt.Errorf("fixedpoint: nil coordinate %d", lo+j)
			}
			if v.CmpAbs(l.bias) >= 0 {
				return fmt.Errorf("%w: |coordinate %d| >= 2^%d", ErrSlotOverflow, lo+j, l.magBits)
			}
		}
		p.SetInt64(0)
		for j := hi - 1; j >= lo; j-- {
			p.Lsh(p, l.slotBits)
			p.Add(p, vs[j])
			p.Add(p, l.bias)
		}
	}
	return nil
}

// Unpack splits packed plaintexts into coords fresh raw slot fields; see
// UnpackInto.
func (l *SlotLayout) Unpack(packed []*big.Int, coords int) ([]*big.Int, error) {
	out := make([]*big.Int, coords)
	for i := range out {
		out[i] = new(big.Int)
	}
	if err := l.UnpackInto(out, packed); err != nil {
		return nil, err
	}
	return out, nil
}

// UnpackInto splits packed plaintexts back into len(dst) raw slot fields,
// written into dst's non-nil integers with the bias still included (the
// aggregated bias is weight-dependent; see BiasOffset). It fails when a
// plaintext has overflowed past its top slot — the only carry the layout
// can detect; carries between interior slots are caught by the caller's
// plausibility bound on the decoded values.
func (l *SlotLayout) UnpackInto(dst, packed []*big.Int) error {
	coords := len(dst)
	if need := l.Groups(coords); len(packed) != need {
		return fmt.Errorf("fixedpoint: %d packed plaintexts for %d coordinates, want %d", len(packed), coords, need)
	}
	for g, p := range packed {
		if p == nil || p.Sign() < 0 {
			return fmt.Errorf("fixedpoint: invalid packed plaintext %d", g)
		}
		if p.Cmp(l.limit) >= 0 {
			return fmt.Errorf("%w: packed plaintext %d beyond %d slots", ErrSlotOverflow, g, l.slots)
		}
		lo := g * l.slots
		for j := 0; lo+j < coords && j < l.slots; j++ {
			f := dst[lo+j]
			f.Rsh(p, uint(j)*l.slotBits)
			f.And(f, l.mask)
		}
	}
	return nil
}

// BiasOffset sets dst to the aggregated sign bias bias·biasWeight that
// every raw slot field of one opened vector carries: a slot holds
// trueSum + bias·biasWeight, where biasWeight is the sum of the dyadic
// push-sum coefficients of every biased contribution folded into it (the
// state's weight, times the number of biased vectors added slot-wise —
// e.g. 2 after the means+noise addition). One offset serves the whole
// vector; the caller subtracts it from each field.
//
// The product is exact. A float64 weight is m·2^e for an odd integer m
// (m = 0 for a zero weight), so bias·biasWeight = m·2^(e+magBits) is an
// integer iff e+magBits ≥ 0. A non-integer product means a contribution
// was halved more often than the bias has factors of two — the same
// budget breach the pre-scale contract guards against — and is reported
// as an error rather than rounded; so are NaN, ±Inf and negative weights.
func (l *SlotLayout) BiasOffset(dst *big.Int, biasWeight float64) error {
	if math.IsNaN(biasWeight) || math.IsInf(biasWeight, 0) || biasWeight < 0 {
		return fmt.Errorf("fixedpoint: invalid bias weight %v", biasWeight)
	}
	frac, exp := math.Frexp(biasWeight) // ±0: mant 0, so dst is 0
	mant := uint64(frac * (1 << 53))
	tz := bits.TrailingZeros64(mant)
	shift := exp - 53 + int(l.magBits) + tz
	if shift < 0 {
		return fmt.Errorf("fixedpoint: bias weight %v exceeds the bias' halving budget", biasWeight)
	}
	dst.SetUint64(mant >> tz)
	dst.Lsh(dst, uint(shift))
	return nil
}

// DigitLayout opens several signed integers with one decryption. A
// group of up to slots integers v_0 … v_{m−1} travels as the one
// integer P = Σ_j v_j·2^(j·width), which a caller can build
// homomorphically from per-coordinate ciphertexts by Horner's rule
// (from the top coordinate down: double the accumulator width times,
// add the next ciphertext). SplitInto recovers the v_j from the opened
// P as its balanced base-2^width digits, each in
// (−2^(width−1), 2^(width−1)].
//
// Exactness. Every v_j must satisfy |v_j| < 2^(width−2). Then
// |P| < 2^(width−2)·Σ_j 2^(j·width) < 2^(slots·width−1), and
// slots = ⌊plainBits/width⌋ keeps that at or below 2^(plainBits−1): P
// survives the ring's residue-above-M/2 sign convention, and its
// balanced digits are exactly the v_j. Unlike SlotLayout no bias is
// needed — the digits are signed — and the split is a bijection between
// the budgeted groups and their packed values, so opening P discloses
// the same integers as opening each v_j, and nothing more.
type DigitLayout struct {
	width uint
	slots int
	half  *big.Int   // 2^(width−1) − 1: a balanced digit is a base-2^width digit minus half
	bound *big.Int   // 2^(width−2): digits at or beyond it are out of budget
	mask  *big.Int   // 2^width − 1
	offs  []*big.Int // offs[m−1] = Σ_{j<m} half·2^(j·width): the bias that makes m digits standard
}

// NewDigitLayout packs signed integers of magnitude below 2^(width−2)
// into plaintexts with plainBits usable bits. It fails when not even one
// digit fits or the width leaves no magnitude.
func NewDigitLayout(plainBits int, width uint) (*DigitLayout, error) {
	if width < 3 {
		return nil, fmt.Errorf("fixedpoint: digit width %d < 3", width)
	}
	slots := plainBits / int(width)
	if slots < 1 {
		return nil, fmt.Errorf("fixedpoint: plaintext of %d bits cannot fit one %d-bit digit", plainBits, width)
	}
	one := big.NewInt(1)
	l := &DigitLayout{
		width: width,
		slots: slots,
		half:  new(big.Int).Sub(new(big.Int).Lsh(one, width-1), one),
		bound: new(big.Int).Lsh(one, width-2),
		mask:  new(big.Int).Sub(new(big.Int).Lsh(one, width), one),
		offs:  make([]*big.Int, slots),
	}
	acc := new(big.Int)
	for m := range l.offs {
		acc.Add(acc, new(big.Int).Lsh(l.half, uint(m)*width))
		l.offs[m] = new(big.Int).Set(acc)
	}
	return l, nil
}

// Slots reports how many integers fit one plaintext.
func (l *DigitLayout) Slots() int { return l.slots }

// Width reports the digit width: the doublings per Horner step.
func (l *DigitLayout) Width() uint { return l.width }

// Groups reports how many plaintexts carry coords integers:
// ⌈coords/slots⌉. Plaintext g holds coordinates [g·slots, g·slots+m) with
// coordinate g·slots+j in digit j.
func (l *DigitLayout) Groups(coords int) int {
	return (coords + l.slots - 1) / l.slots
}

// SplitInto writes the balanced digits of the signed packed plaintexts
// into len(dst) non-nil integers, none aliasing packed. A digit outside
// the budget (|v| ≥ 2^(width−2)), or a plaintext with more than its
// group's digits, is ErrSlotOverflow: a coordinate with
// 2^(width−2) ≤ |v| < 3·2^(width−2) is reported instead of silently
// carrying into its neighbour (a larger overrun is indistinguishable
// from a carry: the caller must rule it out, by bounding the sums it
// packs). Each group is staged in its lowest coordinate, so nothing is
// allocated once dst is wide enough for a packed plaintext.
func (l *DigitLayout) SplitInto(dst, packed []*big.Int) error {
	coords := len(dst)
	if need := l.Groups(coords); len(packed) != need {
		return fmt.Errorf("fixedpoint: %d packed plaintexts for %d coordinates, want %d", len(packed), coords, need)
	}
	for g, p := range packed {
		if p == nil {
			return fmt.Errorf("fixedpoint: invalid packed plaintext %d", g)
		}
		lo := g * l.slots
		m := min(l.slots, coords-lo)
		u := dst[lo]
		u.Add(p, l.offs[m-1])
		if u.Sign() < 0 || u.BitLen() > m*int(l.width) {
			return fmt.Errorf("%w: packed plaintext %d beyond %d digits", ErrSlotOverflow, g, m)
		}
		for j := m - 1; j >= 0; j-- {
			f := dst[lo+j]
			if j > 0 {
				f.Rsh(u, uint(j)*l.width)
			}
			f.And(f, l.mask)
			f.Sub(f, l.half)
			if f.CmpAbs(l.bound) >= 0 {
				return fmt.Errorf("%w: digit %d of packed plaintext %d beyond ±2^%d", ErrSlotOverflow, j, g, l.width-2)
			}
		}
	}
	return nil
}
