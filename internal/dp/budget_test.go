package dp

import (
	"errors"
	"math"
	"sync"
	"testing"
)

// The Accountant tests drive a Budget as a run does — one spend per
// iteration, never settled — and the Ledger tests as a streaming
// session does: one spend per window, settled down to what the window
// disclosed, with skipped windows recorded.

func TestAccountantBasicSpend(t *testing.T) {
	b, err := NewBudget(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Spend(0, 0.4); err != nil {
		t.Fatal(err)
	}
	if err := b.Spend(1, 0.6); err != nil {
		t.Fatal(err)
	}
	if got := b.Report().Spent; got != 1.0 {
		t.Fatalf("spent = %v", got)
	}
	if got := b.Remaining(); got != 0 {
		t.Fatalf("remaining = %v", got)
	}
	if got := b.Total(); got != 1.0 {
		t.Fatalf("total = %v", got)
	}
}

func TestAccountantExhaustion(t *testing.T) {
	b, _ := NewBudget(1.0)
	if err := b.Spend(0, 0.9); err != nil {
		t.Fatal(err)
	}
	if err := b.Spend(1, 0.2); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	// A failed spend must not consume budget.
	if rep := b.Report(); rep.Spent != 0.9 || rep.Spends != 1 {
		t.Fatalf("failed spend consumed budget: %+v", rep)
	}
	// Budget still available for a fitting spend.
	if err := b.Spend(1, 0.1); err != nil {
		t.Fatalf("fitting spend rejected: %v", err)
	}
}

func TestAccountantFloatingPointSlack(t *testing.T) {
	// Ten slices of eps/10 must fit despite floating-point drift.
	b, _ := NewBudget(1.0)
	for i := 0; i < 10; i++ {
		if err := b.Spend(i, 0.1); err != nil {
			t.Fatalf("slice %d rejected: %v", i, err)
		}
	}
}

func TestAccountantValidation(t *testing.T) {
	b, _ := NewBudget(1)
	for _, bad := range []float64{0, -0.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := b.Spend(0, bad); err == nil || errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("Spend(%v): err = %v, want a plain validation error", bad, err)
		}
	}
	if rep := b.Report(); rep.Spent != 0 || rep.Spends != 0 {
		t.Fatalf("refused spends recorded: %+v", rep)
	}
}

func TestAccountantLedger(t *testing.T) {
	// Entries are found by index: settling index 0 after index 1 has
	// spent adjusts index 0 alone.
	b, _ := NewBudget(2)
	_ = b.Spend(0, 0.5)
	_ = b.Spend(1, 0.25)
	b.Settle(0, 0.125)
	if got := b.Report().Spent; got != 0.375 {
		t.Fatalf("spent = %v, want 0.375", got)
	}
	// An index that never spent settles nothing.
	b.Settle(7, 0)
	if got := b.Report().Spent; got != 0.375 {
		t.Fatalf("settling an unknown index moved spent to %v", got)
	}
}

func TestAccountantReport(t *testing.T) {
	b, _ := NewBudget(3)
	_ = b.Spend(0, 1)
	if rep := b.Report(); rep != (Report{Total: 3, Spent: 1, Remaining: 2, Spends: 1}) {
		t.Fatalf("report = %+v", rep)
	}
}

func TestAccountantConcurrentSpend(t *testing.T) {
	b, _ := NewBudget(100)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				_ = b.Spend(i*10+j, 0.5)
				_ = b.Remaining()
			}
		}()
	}
	wg.Wait()
	if got := b.Report().Spent; got != 100 {
		t.Fatalf("concurrent spent = %v, want exactly the budget", got)
	}
}

func TestLedgerDrawSettleRefund(t *testing.T) {
	b, err := NewBudget(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Spend(0, 4); err != nil {
		t.Fatal(err)
	}
	if got := b.Report().Spent; got != 4 {
		t.Fatalf("spent = %v, want 4", got)
	}
	// Early convergence: the window only disclosed 2.5 of its 4.
	b.Settle(0, 2.5)
	if got := b.Report().Spent; got != 2.5 {
		t.Fatalf("after settle, spent = %v, want 2.5", got)
	}
	if got := b.Remaining(); got != 7.5 {
		t.Fatalf("remaining = %v, want 7.5", got)
	}
	// Settling above the reservation clamps: budget is returned, never
	// retroactively granted.
	if err := b.Spend(1, 2); err != nil {
		t.Fatal(err)
	}
	b.Settle(1, 99)
	if got := b.Report().Spent; got != 4.5 {
		t.Fatalf("after clamped settle, spent = %v, want 4.5", got)
	}
	// A negative settlement clamps to zero: the whole reservation is
	// refunded.
	b.Settle(1, -3)
	if got := b.Report().Spent; got != 2.5 {
		t.Fatalf("after negative settle, spent = %v, want 2.5", got)
	}
}

func TestLedgerRefusesOverrun(t *testing.T) {
	b, err := NewBudget(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Spend(0, 0.75); err != nil {
		t.Fatal(err)
	}
	if err := b.Spend(1, 0.5); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("overrun spend: err = %v, want ErrBudgetExhausted", err)
	}
	// The refused spend recorded nothing.
	if rep := b.Report(); rep.Spent != 0.75 || rep.Spends != 1 {
		t.Fatalf("report = %+v, want 0.75 spent in 1 entry", rep)
	}
	// Exact exhaustion is allowed (the uniform strategy lands here).
	if err := b.Spend(1, 0.25); err != nil {
		t.Fatalf("exact-exhaustion spend: %v", err)
	}
	if got := b.Remaining(); got != 0 {
		t.Fatalf("remaining = %v, want 0", got)
	}
}

func TestLedgerZeroRemainingRefusesAnyDraw(t *testing.T) {
	b, err := NewBudget(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Spend(0, 2); err != nil {
		t.Fatal(err)
	}
	// Zero remaining budget: every further positive spend must be a hard
	// refusal, however small.
	for _, eps := range []float64{2, 0.1, 1e-6} {
		if err := b.Spend(1, eps); !errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("spend %v on exhausted budget: err = %v, want ErrBudgetExhausted", eps, err)
		}
	}
	if err := b.Spend(1, -1); err == nil || errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("non-positive spend: err = %v, want a plain validation error", err)
	}
}

func TestLedgerSkipsAndReport(t *testing.T) {
	b, err := NewBudget(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Spend(0, 2); err != nil {
		t.Fatal(err)
	}
	b.Skip(1)
	b.Skip(2)
	if err := b.Spend(3, 2); err != nil {
		t.Fatal(err)
	}
	// A skipped index has nothing to settle.
	b.Settle(1, 0)
	if rep := b.Report(); rep != (Report{Total: 8, Spent: 4, Remaining: 4, Spends: 2, Skips: 2}) {
		t.Fatalf("report = %+v, want 2 spends / 2 skips, 4 of 8 spent", rep)
	}
}

func TestNewLedgerRejectsBadBudgets(t *testing.T) {
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewBudget(bad); err == nil {
			t.Fatalf("NewBudget(%v) must fail", bad)
		}
	}
}
