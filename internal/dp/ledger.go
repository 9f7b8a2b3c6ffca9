package dp

import (
	"fmt"
	"math"
	"sync"
)

// Ledger is the longitudinal companion of the per-run Accountant: where
// an Accountant audits the iterations of one clustering, the Ledger
// audits the windows of a streaming session against one lifetime budget.
// Re-clustering a sliding window is a fresh sequence of disclosures over
// (largely) the same people, so the per-window epsilons self-compose —
// exactly the compounding the longitudinal budget must bound. Each
// window draws its epsilon up front (refused with ErrBudgetExhausted
// when the lifetime budget would overrun) and settles down to what the
// run actually disclosed when it converges early.
//
// Ledger is safe for concurrent use.
type Ledger struct {
	mu       sync.Mutex
	lifetime float64
	spent    float64
	draws    []WindowDraw
}

// WindowDraw is one ledger entry: what a window reserved and what it
// actually disclosed.
type WindowDraw struct {
	// Window is the 0-based window index.
	Window int
	// Requested is the epsilon drawn before the window ran (0 for a
	// skipped window).
	Requested float64
	// Spent is what the window's disclosures actually consumed — at most
	// Requested, less when the run converged early.
	Spent float64
	// Skipped marks a window the spend strategy elected not to
	// re-cluster (nothing disclosed, nothing spent).
	Skipped bool
}

// NewLedger creates a ledger with the given lifetime epsilon budget.
func NewLedger(lifetimeEpsilon float64) (*Ledger, error) {
	if lifetimeEpsilon <= 0 || math.IsNaN(lifetimeEpsilon) || math.IsInf(lifetimeEpsilon, 0) {
		return nil, fmt.Errorf("dp: lifetime budget %v must be positive and finite", lifetimeEpsilon)
	}
	return &Ledger{lifetime: lifetimeEpsilon}, nil
}

// Draw reserves eps for the given window. It fails with
// ErrBudgetExhausted (recording nothing) when the reservation would
// overrun the lifetime budget; the same relative tolerance as
// Accountant.Spend absorbs floating-point drift in strategies that split
// the budget into many windows.
func (l *Ledger) Draw(window int, eps float64) error {
	if eps <= 0 || math.IsNaN(eps) {
		return fmt.Errorf("dp: window %d draw %v must be positive", window, eps)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	const tol = 1e-9
	if l.spent+eps > l.lifetime*(1+tol) {
		return fmt.Errorf("%w: window %d draw %.6g would exceed lifetime %.6g (%.6g already spent)",
			ErrBudgetExhausted, window, eps, l.lifetime, l.spent)
	}
	l.spent += eps
	l.draws = append(l.draws, WindowDraw{Window: window, Requested: eps, Spent: eps})
	return nil
}

// Settle reduces the most recent draw for window to what the run
// actually disclosed, refunding the difference (early convergence leaves
// per-iteration slices unspent). Settling above the reservation is a
// protocol bug and is clamped to the reservation — budget can be
// returned, never retroactively granted.
func (l *Ledger) Settle(window int, actual float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.draws) - 1; i >= 0; i-- {
		d := &l.draws[i]
		if d.Window != window || d.Skipped {
			continue
		}
		if actual < 0 {
			actual = 0
		}
		if actual > d.Requested {
			actual = d.Requested
		}
		l.spent -= d.Spent - actual
		d.Spent = actual
		return
	}
}

// RecordSkip notes a window the spend strategy elected not to
// re-cluster: nothing disclosed, nothing spent, but the decision itself
// is part of the auditable history.
func (l *Ledger) RecordSkip(window int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.draws = append(l.draws, WindowDraw{Window: window, Skipped: true})
}

// Remaining returns the unspent lifetime budget (never negative).
func (l *Ledger) Remaining() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.lifetime - l.spent
	if r < 0 {
		return 0
	}
	return r
}

// Spent returns the consumed lifetime budget.
func (l *Ledger) Spent() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spent
}

// Lifetime returns the total lifetime budget.
func (l *Ledger) Lifetime() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lifetime
}

// Draws returns a copy of the per-window history.
func (l *Ledger) Draws() []WindowDraw {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]WindowDraw, len(l.draws))
	copy(out, l.draws)
	return out
}

// LedgerReport summarizes the longitudinal privacy position of a
// streaming session.
type LedgerReport struct {
	LifetimeEpsilon float64
	SpentEpsilon    float64
	Remaining       float64
	Windows         int // windows that ran (drew budget)
	Skips           int // windows the strategy skipped
}

// Report returns the current longitudinal report.
func (l *Ledger) Report() LedgerReport {
	l.mu.Lock()
	defer l.mu.Unlock()
	rep := LedgerReport{
		LifetimeEpsilon: l.lifetime,
		SpentEpsilon:    l.spent,
		Remaining:       l.lifetime - l.spent,
	}
	if rep.Remaining < 0 {
		rep.Remaining = 0
	}
	for _, d := range l.draws {
		if d.Skipped {
			rep.Skips++
		} else {
			rep.Windows++
		}
	}
	return rep
}
