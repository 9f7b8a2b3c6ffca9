package dp

import (
	"fmt"
	"math"
)

// SpendState is the public information a SpendStrategy decides from
// before a streaming window runs. Everything in it is already disclosed
// (or configuration): strategies never see raw data, so the decision
// itself leaks nothing beyond what the budget and previous disclosures
// already did.
type SpendState struct {
	// Remaining is the unspent lifetime budget.
	Remaining float64
	// Window is the 0-based index of the window about to run.
	Window int
	// PlannedWindows is the session's provisioning horizon (how many
	// windows the budget is meant to last).
	PlannedWindows int
	// Drift is the maximum centroid displacement between the last two
	// disclosed windows (NaN until two windows have been disclosed) —
	// the public signal threshold-triggered re-clustering keys on.
	Drift float64
	// ConsecutiveSkips counts the windows skipped in a row immediately
	// before this one.
	ConsecutiveSkips int
}

// SpendDecision is a SpendStrategy's verdict for one window: either
// re-cluster with the given epsilon, or skip (keep the previous
// centroids, spend nothing).
type SpendDecision struct {
	Epsilon float64
	Skip    bool
}

// SpendStrategy decides the per-window epsilon draw of a streaming
// session against its lifetime budget — the longitudinal counterpart of
// Strategy (which splits one window's epsilon across its k-means
// iterations). Decide must be deterministic in its argument: the
// session's bit-reproducibility contract extends to budget decisions.
type SpendStrategy interface {
	// Name identifies the strategy in logs and experiment tables.
	Name() string
	// Decide picks the window's draw (or skip) from the public state.
	Decide(s SpendState) (SpendDecision, error)
}

// SpendUniform divides the remaining budget evenly over the remaining
// planned windows: ε_w = remaining / (planned − w). The budget is
// exhausted exactly at the planning horizon, after which the session
// refuses further windows — the hard stop a bounded lifetime guarantee
// needs.
type SpendUniform struct{}

// Name implements SpendStrategy.
func (SpendUniform) Name() string { return "uniform" }

// Decide implements SpendStrategy.
func (SpendUniform) Decide(s SpendState) (SpendDecision, error) {
	left := s.PlannedWindows - s.Window
	if left < 1 {
		left = 1
	}
	return SpendDecision{Epsilon: s.Remaining / float64(left)}, nil
}

// SpendDecaying draws a fixed fraction of the remaining budget each
// window: ε_w = remaining · Factor. Early windows get the most fidelity
// and the budget asymptotically never exhausts — the open-ended-stream
// trade-off (each window is noisier than the last).
type SpendDecaying struct {
	// Factor is the fraction of the remaining budget drawn per window,
	// in (0, 1). Default 0.5.
	Factor float64
}

// Name implements SpendStrategy.
func (d SpendDecaying) Name() string { return fmt.Sprintf("decaying(%.2f)", d.factor()) }

func (d SpendDecaying) factor() float64 {
	if d.Factor <= 0 || d.Factor >= 1 {
		return 0.5
	}
	return d.Factor
}

// Decide implements SpendStrategy.
func (d SpendDecaying) Decide(s SpendState) (SpendDecision, error) {
	return SpendDecision{Epsilon: s.Remaining * d.factor()}, nil
}

// SpendThreshold re-clusters only when the population appears to have
// moved: while the disclosed centroid drift between the last two
// windows stays at or below Drift, windows are skipped (previous
// centroids kept, nothing spent), bounded by MaxSkips consecutive skips
// so a slowly drifting population cannot evade re-clustering forever.
// Windows that do run draw via Inner (default SpendUniform).
//
// The drift signal is computed from already-disclosed centroids only,
// so the skip decision leaks nothing new.
type SpendThreshold struct {
	// Drift is the displacement bound at or below which a window is
	// skipped. Must be positive (a zero bound would never skip and
	// should just use Inner directly).
	Drift float64
	// MaxSkips bounds consecutive skips. Default 3.
	MaxSkips int
	// Inner draws the epsilon of windows that do run. Default
	// SpendUniform.
	Inner SpendStrategy
}

// Name implements SpendStrategy.
func (t SpendThreshold) Name() string {
	return fmt.Sprintf("threshold(%.3g,max%d,%s)", t.Drift, t.maxSkips(), t.inner().Name())
}

func (t SpendThreshold) maxSkips() int {
	if t.MaxSkips < 1 {
		return 3
	}
	return t.MaxSkips
}

func (t SpendThreshold) inner() SpendStrategy {
	if t.Inner == nil {
		return SpendUniform{}
	}
	return t.Inner
}

// Decide implements SpendStrategy.
func (t SpendThreshold) Decide(s SpendState) (SpendDecision, error) {
	if t.Drift <= 0 || math.IsNaN(t.Drift) {
		return SpendDecision{}, fmt.Errorf("dp: threshold strategy needs a positive drift bound, got %v", t.Drift)
	}
	if !math.IsNaN(s.Drift) && s.Drift <= t.Drift && s.ConsecutiveSkips < t.maxSkips() {
		return SpendDecision{Skip: true}, nil
	}
	return t.inner().Decide(s)
}

// SpendStrategyByName resolves the spend-strategy names used by the
// public Config, CLI flags and the experiment driver. driftBound
// parameterizes the threshold strategy (ignored by the others).
func SpendStrategyByName(name string, driftBound float64) (SpendStrategy, error) {
	switch name {
	case "", "uniform":
		return SpendUniform{}, nil
	case "decaying":
		return SpendDecaying{}, nil
	case "threshold":
		return SpendThreshold{Drift: driftBound}, nil
	default:
		return nil, fmt.Errorf("dp: unknown spend strategy %q (want uniform, decaying or threshold)", name)
	}
}
