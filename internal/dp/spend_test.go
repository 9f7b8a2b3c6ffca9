package dp

import (
	"math"
	"testing"
)

func TestSpendUniformExhaustsAtHorizon(t *testing.T) {
	b, _ := NewBudget(8)
	var s SpendStrategy = SpendUniform{}
	for w := 0; w < 4; w++ {
		dec, err := s.Decide(SpendState{Remaining: b.Remaining(), Window: w, PlannedWindows: 4})
		if err != nil {
			t.Fatal(err)
		}
		if dec.Skip {
			t.Fatalf("window %d: uniform never skips", w)
		}
		if math.Abs(dec.Epsilon-2) > 1e-12 {
			t.Fatalf("window %d: eps = %v, want 2", w, dec.Epsilon)
		}
		if err := b.Spend(w, dec.Epsilon); err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
	}
	// Past the horizon the remaining budget is ~0: the proposed epsilon
	// collapses to (floating-point) zero, which the session layer maps
	// to a hard refusal.
	dec, err := s.Decide(SpendState{Remaining: b.Remaining(), Window: 4, PlannedWindows: 4})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Epsilon > 8*1e-9 {
		t.Fatalf("past-horizon eps = %v, want ~0", dec.Epsilon)
	}
}

func TestSpendDecayingHalvesRemaining(t *testing.T) {
	s := SpendDecaying{}
	dec, err := s.Decide(SpendState{Remaining: 8})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Epsilon != 4 {
		t.Fatalf("eps = %v, want 4", dec.Epsilon)
	}
	s2 := SpendDecaying{Factor: 0.25}
	dec, _ = s2.Decide(SpendState{Remaining: 8})
	if dec.Epsilon != 2 {
		t.Fatalf("eps = %v, want 2", dec.Epsilon)
	}
}

func TestSpendThresholdSkipsAndBounds(t *testing.T) {
	s := SpendThreshold{Drift: 0.1, MaxSkips: 2}
	// No drift signal yet (first window): run.
	dec, err := s.Decide(SpendState{Remaining: 8, PlannedWindows: 4, Drift: math.NaN()})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Skip {
		t.Fatal("first window must run (no drift signal yet)")
	}
	// Small drift: skip.
	dec, _ = s.Decide(SpendState{Remaining: 8, Window: 1, PlannedWindows: 4, Drift: 0.05})
	if !dec.Skip {
		t.Fatal("drift below bound must skip")
	}
	// Skip streak at the bound: forced re-cluster.
	dec, _ = s.Decide(SpendState{Remaining: 8, Window: 3, PlannedWindows: 4, Drift: 0.05, ConsecutiveSkips: 2})
	if dec.Skip {
		t.Fatal("MaxSkips consecutive skips must force a re-cluster")
	}
	// Large drift: run.
	dec, _ = s.Decide(SpendState{Remaining: 8, Window: 1, PlannedWindows: 4, Drift: 0.5})
	if dec.Skip {
		t.Fatal("drift above bound must run")
	}
	// Unparameterized threshold strategy is a configuration error.
	if _, err := (SpendThreshold{}).Decide(SpendState{Remaining: 8}); err == nil {
		t.Fatal("zero drift bound must error")
	}
}

func TestSpendStrategyByName(t *testing.T) {
	for name, want := range map[string]string{
		"":          "uniform",
		"uniform":   "uniform",
		"decaying":  "decaying(0.50)",
		"threshold": "threshold(0.05,max3,uniform)",
	} {
		s, err := SpendStrategyByName(name, 0.05)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if s.Name() != want {
			t.Fatalf("%q: Name() = %q, want %q", name, s.Name(), want)
		}
	}
	if _, err := SpendStrategyByName("unifrom", 0); err == nil {
		t.Fatal("typo must error")
	} else if got, want := err.Error(), `dp: unknown spend strategy "unifrom" (want uniform, decaying or threshold)`; got != want {
		t.Fatalf("error text:\n  got:  %s\n  want: %s", got, want)
	}
}
