package dp

import (
	"fmt"
	"math"
	"sync"
)

// Budget meters an ε privacy budget by self-composition: the total
// privacy loss is the sum of the ε of every disclosure spent against
// it. One type serves both horizons — a run spends one entry per
// iteration against its Epsilon, a streaming session one entry per
// window against its lifetime budget (re-clustering a sliding window is
// a fresh sequence of disclosures over largely the same people, so the
// windows self-compose just as the iterations do). Entries are indexed
// by iteration or window number. An entry may settle below what it
// reserved when the spender disclosed less (early convergence), and a
// skipped index is recorded without spending.
//
// Budget is safe for concurrent use.
type Budget struct {
	mu     sync.Mutex
	total  float64
	spent  float64
	spends []spend
	skips  []int
}

// spend is one entry: what index reserved and what it actually spent.
type spend struct {
	index            int
	requested, spent float64
}

// NewBudget creates a budget of total ε, which must be positive and
// finite.
func NewBudget(total float64) (*Budget, error) {
	if !(total > 0) || math.IsInf(total, 0) {
		return nil, fmt.Errorf("dp: budget %v must be positive and finite", total)
	}
	return &Budget{total: total}, nil
}

// Spend reserves eps for index. It fails with ErrBudgetExhausted (and
// records nothing) when the reservation would overrun the budget; a
// tiny relative tolerance absorbs floating-point drift in strategies
// that split the budget into many slices.
func (b *Budget) Spend(index int, eps float64) error {
	if !(eps > 0) || math.IsInf(eps, 0) {
		return fmt.Errorf("dp: spend %v at %d must be positive and finite", eps, index)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	const tol = 1e-9
	if b.spent+eps > b.total*(1+tol) {
		return fmt.Errorf("%w: %.6g at %d would exceed %.6g (%.6g already spent)",
			ErrBudgetExhausted, eps, index, b.total, b.spent)
	}
	b.spent += eps
	b.spends = append(b.spends, spend{index: index, requested: eps, spent: eps})
	return nil
}

// Settle reduces the most recent spend at index to what was actually
// disclosed, refunding the difference. Settling above the reservation
// is a protocol bug and is clamped to it: budget can be returned, never
// retroactively granted.
func (b *Budget) Settle(index int, actual float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := len(b.spends) - 1; i >= 0; i-- {
		s := &b.spends[i]
		if s.index != index {
			continue
		}
		actual = min(max(actual, 0), s.requested)
		b.spent -= s.spent - actual
		s.spent = actual
		return
	}
}

// Skip records that index elected not to disclose: nothing spent, but
// the decision is part of the auditable history.
func (b *Budget) Skip(index int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.skips = append(b.skips, index)
}

// Remaining returns the unspent budget (never negative).
func (b *Budget) Remaining() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return max(b.total-b.spent, 0)
}

// Total returns the budget's total ε.
func (b *Budget) Total() float64 { return b.total }

// Report summarizes a budget's position.
type Report struct {
	Total     float64
	Spent     float64
	Remaining float64
	Spends    int // entries that spent (iterations disclosed, windows run)
	Skips     int // entries that skipped
}

// Report returns the current position.
func (b *Budget) Report() Report {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Report{
		Total:     b.total,
		Spent:     b.spent,
		Remaining: max(b.total-b.spent, 0),
		Spends:    len(b.spends),
		Skips:     len(b.skips),
	}
}
