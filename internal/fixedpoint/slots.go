package fixedpoint

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
)

// SlotLayout packs several signed fixed-point coordinates into one
// plaintext of the additively-homomorphic ring, the batching lever of
// homomorphically outsourced clustering: every homomorphic operation on a
// packed plaintext acts on all of its slots at once, so encrypts,
// refreshes, partial decryptions and wire bytes all shrink by the packing
// factor.
//
// Layout. A group of up to slots coordinates v_0 … v_{m−1} travels as
// the one integer P = Σ_j v_j·2^(j·width), built by Horner's rule from
// the top coordinate down, with
//
//	width = magBits + 1 + headBits,
//	slots = ⌊plainBits/width⌋,
//
// where 2^magBits strictly bounds one contribution's signed scaled value
// and headBits is the aggregation headroom the caller sizes for the sums
// the slots will hold. UnpackInto recovers the v_j from P as its balanced
// base-2^width digits, each in (−2^(width−1), 2^(width−1)].
//
// Signs. Every slot sum must satisfy |v_j| < 2^(width−2). Then
// |P| < 2^(width−2)·Σ_j 2^(j·width) < 2^(slots·width−1) ≤ 2^(plainBits−1):
// P survives the ring's residue-above-M/2 sign convention, and its
// balanced digits are exactly the v_j. No bias is needed — the digits
// are signed — and the split is a bijection between the budgeted groups
// and their packed values, so opening P discloses the same integers as
// opening each v_j, and nothing more.
//
// Linearity. A packed integer is a fixed linear form in its slots, so
// any integer combination of packed plaintexts — sums, doublings — is
// the packed combination of their slots, as long as every slot stays in
// its budget. That is all a push-sum run does to a ciphertext: gossip
// adds and doubles, and a halving is an exponent beside the ciphertext
// (internal/gossip), never a division.
type SlotLayout struct {
	width uint
	slots int
	mag   *big.Int   // 2^magBits: a packed coordinate must stay below
	half  *big.Int   // 2^(width−1) − 1: a balanced digit is a base-2^width digit minus half
	bound *big.Int   // 2^(width−2): digits at or beyond it are out of budget
	mask  *big.Int   // 2^width − 1
	offs  []*big.Int // offs[m−1] = Σ_{j<m} half·2^(j·width): the bias that makes m digits standard
}

// ErrSlotOverflow is returned when a value does not fit its slot budget:
// a coordinate at or beyond 2^magBits on Pack, or a slot sum beyond
// ±2^(width−2) (or a plaintext with more than its group's digits) on
// Unpack.
var ErrSlotOverflow = errors.New("fixedpoint: slot overflow")

// NewSlotLayout builds a packing of plaintexts with plainBits usable
// bits into slots of magBits magnitude bits plus one sign bit plus
// headBits of aggregation headroom. It fails when not even one slot
// fits, or when there is no headroom: a slot sum is budgeted at
// 2^(width−2), so one contribution fits it only if headBits ≥ 1.
func NewSlotLayout(plainBits int, magBits, headBits uint) (*SlotLayout, error) {
	if headBits < 1 {
		return nil, fmt.Errorf("fixedpoint: slot of %d magnitude bits has no headroom", magBits)
	}
	width := magBits + 1 + headBits
	slots := plainBits / int(width)
	if slots < 1 {
		return nil, fmt.Errorf("fixedpoint: plaintext of %d bits cannot fit one %d-bit slot (magnitude %d + sign 1 + headroom %d)",
			plainBits, width, magBits, headBits)
	}
	one := big.NewInt(1)
	l := &SlotLayout{
		width: width,
		slots: slots,
		mag:   new(big.Int).Lsh(one, magBits),
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

// Slots reports how many coordinates fit one plaintext.
func (l *SlotLayout) Slots() int { return l.slots }

// Groups reports how many packed plaintexts carry coords coordinates:
// ⌈coords/slots⌉. Plaintext g holds coordinates [g·slots, g·slots+m) with
// coordinate g·slots+j in slot j.
func (l *SlotLayout) Groups(coords int) int {
	return (coords + l.slots - 1) / l.slots
}

// Pack maps signed coordinates into fresh packed plaintexts; see
// PackInto.
func (l *SlotLayout) Pack(vs []*big.Int) ([]*big.Int, error) {
	if len(vs) == 0 {
		return nil, nil
	}
	out := make([]*big.Int, l.Groups(len(vs)))
	for g := range out { // a group's full width up front: Horner's rule grows it
		out[g] = new(big.Int).SetBits(make([]big.Word, 0, (l.slots*int(l.width))/bits.UintSize+2))
	}
	if err := l.PackInto(out, vs); err != nil {
		return nil, err
	}
	return out, nil
}

// PackInto maps signed coordinates into the packed plaintexts dst, one
// non-nil integer per group (Groups(len(vs)) of them, none aliasing vs):
// plaintext g is Σ_j vs[g·slots+j]·2^(j·width). Each |v| must be strictly
// below 2^magBits (overflow accounting: a violation means the caller's
// magnitude budget was wrong, not a recoverable input). A group is built
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
			if v.CmpAbs(l.mag) >= 0 {
				return fmt.Errorf("%w: |coordinate %d| >= 2^%d", ErrSlotOverflow, lo+j, l.mag.BitLen()-1)
			}
		}
		p.SetInt64(0)
		for j := hi - 1; j >= lo; j-- {
			p.Lsh(p, l.width)
			p.Add(p, vs[j])
		}
	}
	return nil
}

// Unpack splits signed packed plaintexts into coords fresh coordinates;
// see UnpackInto.
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

// UnpackInto writes the balanced digits of the signed packed plaintexts
// into len(dst) non-nil integers, none aliasing packed. A digit outside
// the budget (|v| ≥ 2^(width−2)), or a plaintext with more than its
// group's digits, is ErrSlotOverflow: a coordinate with
// 2^(width−2) ≤ |v| < 3·2^(width−2) is reported instead of silently
// carrying into its neighbour (a larger overrun is indistinguishable
// from a carry: the caller must rule it out, by bounding the sums it
// packs). Each group is staged in its lowest coordinate, so nothing is
// allocated once dst is wide enough for a packed plaintext.
func (l *SlotLayout) UnpackInto(dst, packed []*big.Int) error {
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
