package damgardjurik

import (
	"math/big"
	"sync"
)

// fixedBaseTable implements fixed-base windowed exponentiation
// (Brickell–Gordon–McCurley–Wilson; Menezes et al., Handbook of Applied
// Cryptography §14.6.3): for a base g that is known in advance, precompute
//
//	rows[i][j] = g^(j · 2^(i·w)) mod m,   0 <= j < 2^w,
//
// so that g^e for e = Σ e_i·2^(i·w) (the base-2^w digits of e) is the
// product Π rows[i][e_i] — one modular multiplication per non-zero digit
// and zero squarings, versus ~1.5 squarings/multiplications per exponent
// bit for the generic square-and-multiply in big.Int.Exp.
//
// The table is immutable after construction and safe for concurrent use;
// per-call scratch products come from a sync.Pool so parallel shard
// workers do not contend on allocations.
type fixedBaseTable struct {
	mod     *big.Int
	window  uint
	maxBits int
	// tab holds rows[i][j] at tab[i<<window+j]: every entry in one
	// []big.Int whose limbs are carved from one []big.Word slab, so a
	// table costs two allocations however many entries it has.
	tab []big.Int

	scratch sync.Pool // *fixedBaseScratch, reused across expInto calls
}

// fixedBaseScratch is the working set of one exponentiation. The
// product and the quotient get buffers of their own because math/big
// allocates a fresh result whenever a receiver aliases an operand
// (acc.Mul(acc, x), acc.Mod(acc, m)): with separate receivers every
// step of the accumulation reuses storage, and an exponentiation into
// a result that already has room allocates nothing.
type fixedBaseScratch struct {
	prod, quo big.Int
}

// fixedBaseWindow is the digit width w. 2^w table entries per row; w=6
// keeps the table around a few MB at 2048-bit moduli while cutting the
// per-exponentiation multiplication count to ceil(bits/6).
const fixedBaseWindow = 6

// newFixedBaseTable precomputes the windowed table for base^e mod mod,
// for exponents of up to maxBits bits. Each entry is reduced through
// scratch product/quotient/remainder integers (Exp's scheme) and then
// copied into its slot of the slab, which is sized for any residue of
// mod, so no entry allocates.
func newFixedBaseTable(base, mod *big.Int, maxBits int) *fixedBaseTable {
	w := uint(fixedBaseWindow)
	numRows := (maxBits + fixedBaseWindow - 1) / fixedBaseWindow
	if numRows < 1 {
		numRows = 1
	}
	entries := 1 << w
	t := &fixedBaseTable{
		mod:     new(big.Int).Set(mod),
		window:  w,
		maxBits: numRows * fixedBaseWindow,
		tab:     make([]big.Int, numRows*entries),
	}
	t.scratch.New = func() interface{} { return new(fixedBaseScratch) }
	const wordBits = 32 << (^big.Word(0) >> 63) // 32 or 64
	wordsPer := (mod.BitLen() + wordBits - 1) / wordBits
	words := make([]big.Word, len(t.tab)*wordsPer)
	for k := range t.tab {
		t.tab[k].SetBits(words[k*wordsPer : k*wordsPer : (k+1)*wordsPer])
	}
	var prod, quo, rem big.Int
	rowBase := new(big.Int).Mod(base, mod) // g^(2^(i·w)) for the current row
	for i := 0; i < numRows; i++ {
		row := t.tab[i*entries : (i+1)*entries]
		row[0].SetInt64(1)
		for j := 1; j < entries; j++ {
			prod.Mul(&row[j-1], rowBase)
			quo.QuoRem(&prod, mod, &rem) // operands are non-negative: the remainder is the residue
			row[j].Set(&rem)
		}
		if i < numRows-1 {
			prod.Mul(&row[entries-1], rowBase)
			quo.QuoRem(&prod, mod, rowBase)
		}
	}
	return t
}

// expInto sets z to base^e mod mod using the precomputed table and
// returns it; z is the accumulator, so storage it already has is
// reused. Exponents wider than the table fall back to big.Int.Exp
// (correct, just slow); negative exponents are not supported and
// return nil.
func (t *fixedBaseTable) expInto(z, e *big.Int) *big.Int {
	if e.Sign() < 0 {
		return nil
	}
	if e.BitLen() > t.maxBits {
		return z.Exp(&t.tab[1], e, t.mod)
	}
	s := t.scratch.Get().(*fixedBaseScratch)
	defer t.scratch.Put(s)
	z.SetInt64(1)
	mask := uint((1 << t.window) - 1)
	words := e.Bits()
	bits := e.BitLen()
	for i, off := 0, 0; off < bits; i, off = i+1, off+fixedBaseWindow {
		digit := extractWindow(words, uint(off), fixedBaseWindow, mask)
		if digit == 0 {
			continue
		}
		s.prod.Mul(z, &t.tab[i<<t.window+int(digit)])
		s.quo.QuoRem(&s.prod, t.mod, z) // operands are non-negative: the remainder is the residue
	}
	return z
}

// extractWindow reads the w-bit digit (mask = 2^w − 1) of the
// little-endian word slice starting at bit offset off.
func extractWindow(words []big.Word, off, w, mask uint) uint {
	const wordBits = uint(32 << (^big.Word(0) >> 63)) // 32 or 64
	wi := off / wordBits
	if wi >= uint(len(words)) {
		return 0
	}
	shift := off % wordBits
	d := uint(words[wi] >> shift)
	if shift+w > wordBits && wi+1 < uint(len(words)) {
		d |= uint(words[wi+1]) << (wordBits - shift)
	}
	return d & mask
}
