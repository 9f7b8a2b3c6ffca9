// Package vecpool provides the contiguous memory layouts behind the
// simulator's million-participant scale: flat strided float64 matrices
// (series, centroids, contributions) and preallocated big.Int
// residue arenas (the cipher suites' push-sum values).
//
// The motivation is GC pressure, not micro-optimization. A run over N
// participants with per-node [][]float64 state and per-cycle big.Int
// churn allocates O(N·k·dim) tiny objects per iteration and O(N·vecLen)
// per gossip cycle; at N in the hundreds of thousands the garbage
// collector dominates wall-clock and the heap fragments. Arenas replace
// those object graphs with a handful of large slabs:
//
//   - Matrix backs a rows×cols float64 matrix with one flat data slab
//     plus one slab of row headers, while still exposing ordinary
//     [][]float64 views — callers keep their idiomatic signatures, the
//     allocator sees two objects instead of rows+1.
//
//   - ResidueArena backs n big.Int values with one []big.Int header slab
//     and one flat []big.Word limb slab, each value pre-sized so the
//     in-place push-sum arithmetic (internal/gossip.Ring) runs without
//     growing: every gossip state and emission buffer of internal/core
//     lives in one, whether it is emitted into cycle-parity buffers or
//     into fresh storage.
//
// Arenas are plain memory, not pools: there is no free list and no
// locking. Ownership is the caller's concern — internal/core gives each
// participant its own arena views, so the sharded engine's workers never
// share mutable arena state.
package vecpool

import (
	"errors"
	"fmt"
	"math/big"
)

// Matrix is a rows×cols float64 matrix in one contiguous slab, with
// cached [][]float64 row views for callers that speak slices-of-slices.
type Matrix struct {
	data []float64
	rows [][]float64
	cols int
}

// NewMatrix allocates a zeroed rows×cols matrix (two allocations total:
// the data slab and the row-header slab).
func NewMatrix(rows, cols int) (*Matrix, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("vecpool: invalid matrix shape %d×%d", rows, cols)
	}
	m := &Matrix{
		data: make([]float64, rows*cols),
		rows: make([][]float64, rows),
		cols: cols,
	}
	for i := range m.rows {
		// Three-index slices cap each row view at its own stride, so an
		// append on a row can never silently spill into its neighbour.
		m.rows[i] = m.data[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return m, nil
}

// FromRows copies a [][]float64 into a fresh Matrix. Every row must have
// the same width.
func FromRows(src [][]float64) (*Matrix, error) {
	if len(src) == 0 {
		return nil, errors.New("vecpool: empty source matrix")
	}
	cols := len(src[0])
	m, err := NewMatrix(len(src), cols)
	if err != nil {
		return nil, err
	}
	for i, row := range src {
		if len(row) != cols {
			return nil, fmt.Errorf("vecpool: ragged source — row %d has %d cols, want %d", i, len(row), cols)
		}
		copy(m.rows[i], row)
	}
	return m, nil
}

// Row returns the i-th row as a view into the slab (mutations are seen
// by every holder of the view).
func (m *Matrix) Row(i int) []float64 { return m.rows[i] }

// Rows returns the cached row views as an ordinary [][]float64. The
// returned slice and its rows alias the slab; callers must not reassign
// the row headers.
func (m *Matrix) Rows() [][]float64 { return m.rows }

// SlideRow advances row i by one streaming window step: the oldest
// len(vals) samples are evicted (the remainder shifts toward index 0)
// and vals land at the tail. The row width never changes — this is the
// append/evict primitive of a sliding-window population, run in place on
// the slab so a window advance allocates nothing. vals must have between
// 1 and Cols samples.
func (m *Matrix) SlideRow(i int, vals []float64) error {
	if i < 0 || i >= len(m.rows) {
		return fmt.Errorf("vecpool: row %d outside [0, %d)", i, len(m.rows))
	}
	if len(vals) < 1 || len(vals) > m.cols {
		return fmt.Errorf("vecpool: slide of %d samples outside [1, %d]", len(vals), m.cols)
	}
	row := m.rows[i]
	keep := m.cols - len(vals)
	copy(row, row[len(vals):])
	copy(row[keep:], vals)
	return nil
}

// NumRows and Cols report the matrix shape.
func (m *Matrix) NumRows() int { return len(m.rows) }
func (m *Matrix) Cols() int    { return m.cols }

// CloneRows deep-copies a (possibly ragged) [][]float64 into flat-backed
// row views: one data slab plus one header slab regardless of the row
// count. It is the arena replacement for the k+1 allocations of the
// naive per-row copy — the shape the protocol copies once per iteration
// per participant (centroid matrices, history entries).
func CloneRows(src [][]float64) [][]float64 {
	total := 0
	for _, row := range src {
		total += len(row)
	}
	data := make([]float64, total)
	out := make([][]float64, len(src))
	off := 0
	for i, row := range src {
		end := off + len(row)
		out[i] = data[off:end:end]
		copy(out[i], row)
		off = end
	}
	return out
}

// ResidueArena is a preallocated block of big.Int values whose limbs
// live in one flat slab. Each value starts at zero with capacity for
// wordsPer limbs; ring operations that stay within that capacity (the
// accounted backend's reduced residues plus one carry limb) never touch
// the allocator. A value that outgrows its slot falls back to an
// ordinary heap-grown big.Int — correct, just no longer arena-backed.
type ResidueArena struct {
	ints  []big.Int
	words []big.Word
}

// NewResidueArena allocates an arena of n big.Int values, each with
// capacity for maxBits-wide magnitudes plus one carry limb (the slack an
// in-place modular Add needs before its conditional subtraction).
func NewResidueArena(n int, maxBits int) (*ResidueArena, error) {
	if n < 0 || maxBits < 1 {
		return nil, fmt.Errorf("vecpool: invalid arena request (n=%d, maxBits=%d)", n, maxBits)
	}
	const wordBits = 32 << (^big.Word(0) >> 63) // 32 or 64
	wordsPer := (maxBits+wordBits-1)/wordBits + 1
	a := &ResidueArena{
		ints:  make([]big.Int, n),
		words: make([]big.Word, n*wordsPer),
	}
	for i := range a.ints {
		// A zero-length slice with private capacity: math/big's nat.make
		// reuses the backing array for any result that fits, so the value
		// grows into its slab instead of allocating.
		a.ints[i].SetBits(a.words[i*wordsPer : i*wordsPer : (i+1)*wordsPer])
	}
	return a, nil
}

// Len reports the number of values in the arena.
func (a *ResidueArena) Len() int { return len(a.ints) }

// Int returns the i-th arena value. The pointer stays valid for the
// arena's lifetime; distinct indices never share limbs.
func (a *ResidueArena) Int(i int) *big.Int { return &a.ints[i] }
