package chiaroscuro

// stream.go is the public face of the streaming tentpole: a Session is
// a long-lived clustering stream over an evolving population, re-using
// one set of protocol resources across many windows — the series arena
// (slid in place), the cipher suite and its key material, and the
// simulated population: one network, one participant per series and
// every participant's buffers, rebound to each window's run instead of
// rebuilt — while one longitudinal privacy budget meters every
// disclosure against a lifetime epsilon.
//
// Quick start:
//
//	series, _, _ := chiaroscuro.SyntheticCER(500, 24, 42)
//	chiaroscuro.Normalize01(series)
//	sess, err := chiaroscuro.OpenStream(series, chiaroscuro.Config{
//		K:               5,
//		LifetimeEpsilon: 8,
//		Windows:         8,
//		WarmStart:       true,
//	})
//	defer sess.Close()
//	res, err := sess.Advance(nil)          // window 0: the initial data
//	res, err = sess.Advance(newSamples)    // window 1: slide + re-cluster
//
// Each Advance slides every participant's series (oldest samples out,
// new samples in), asks the budget strategy for this window's epsilon,
// and runs one full protocol round — or skips it, carrying the previous
// disclosure forward, when the strategy decides the centroids have not
// drifted enough to be worth the budget.

import (
	"errors"
	"fmt"
	"math"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/dp"
)

// BudgetReport is the longitudinal privacy position of a stream.
type BudgetReport struct {
	// LifetimeEpsilon is the stream's total budget; SpentEpsilon the
	// consumed part; Remaining what future windows may still draw.
	LifetimeEpsilon float64
	SpentEpsilon    float64
	Remaining       float64
	// Windows counts the windows that actually ran (disclosed);
	// Skips the windows the budget strategy elected to skip.
	Windows int
	Skips   int
}

// StreamInfo is the per-window streaming context attached to a
// Result produced by Session.Advance.
type StreamInfo struct {
	// Window is the 0-based window index.
	Window int
	// EpsilonDrawn is the budget this window actually consumed (0 when
	// skipped; already settled down for early convergence).
	EpsilonDrawn float64
	// Skipped marks a window the budget strategy declined to
	// re-cluster: Centroids carry the previous window's disclosure and
	// the protocol fields (Trace, Network, Crypto, …) are zero.
	Skipped bool
	// WarmStarted reports whether this window started from the
	// previous window's disclosed centroids.
	WarmStarted bool
	// Drift is the maximum centroid displacement between this window's
	// disclosure and the previous one (NaN for the first window).
	Drift float64
	// Budget is the stream's budget position after this window.
	Budget BudgetReport
}

// Session is a streaming clustering session opened by OpenStream.
// Sessions are not safe for concurrent use.
type Session struct {
	inner *core.RunSession
}

// ErrBudgetExhausted is returned by Session.Advance when the lifetime
// privacy budget cannot cover another window. It is a hard refusal: the
// stream has disclosed everything its budget allows.
var ErrBudgetExhausted = dp.ErrBudgetExhausted

// OpenStream opens a streaming clustering session over the
// participants' series (one per participant, values in [0,1] — see
// Normalize01). The streaming fields of Config (LifetimeEpsilon,
// Windows, WarmStart, BudgetStrategy, DriftThreshold) configure the
// stream; Config.Epsilon must be zero — windows draw their epsilon from
// the lifetime budget. Close the session to release its resources.
func OpenStream(series [][]float64, cfg Config) (*Session, error) {
	sp, err := cfg.streamParams()
	if err != nil {
		return nil, err
	}
	inner, err := core.NewRunSession(series, sp)
	if err != nil {
		return nil, err
	}
	return &Session{inner: inner}, nil
}

// streamParams is the streaming configuration path: the lifetime budget
// replaces Epsilon, and the session-incompatible features are refused.
func (cfg Config) streamParams() (core.SessionParams, error) {
	var sp core.SessionParams
	switch {
	case cfg.Epsilon != 0:
		return sp, errors.New("chiaroscuro: streaming draws each window's epsilon from Config.LifetimeEpsilon — leave Config.Epsilon zero")
	case cfg.LifetimeEpsilon <= 0:
		return sp, errors.New("chiaroscuro: Config.LifetimeEpsilon must be positive for streaming")
	case cfg.Windows < 0:
		return sp, fmt.Errorf("chiaroscuro: Config.Windows must be non-negative, got %d", cfg.Windows)
	case cfg.DriftThreshold < 0:
		return sp, fmt.Errorf("chiaroscuro: Config.DriftThreshold must be non-negative, got %v", cfg.DriftThreshold)
	case cfg.DriftThreshold != 0 && cfg.BudgetStrategy != "threshold":
		return sp, errors.New("chiaroscuro: Config.DriftThreshold applies to the \"threshold\" budget strategy only")
	case cfg.Faults != "":
		return sp, errors.New("chiaroscuro: Config.Faults is not supported in streaming sessions yet")
	}
	spend, err := dp.SpendStrategyByName(cfg.BudgetStrategy, cfg.DriftThreshold)
	if err != nil {
		return sp, err
	}
	base, err := cfg.baseParams()
	if err != nil {
		return sp, err
	}
	return core.SessionParams{
		Base:            base,
		LifetimeEpsilon: cfg.LifetimeEpsilon,
		Windows:         cfg.Windows,
		Spend:           spend,
		WarmStart:       cfg.WarmStart,
	}, nil
}

// Advance runs the next window of the stream. newPoints slides every
// participant's series first — oldest samples out, the new ones in —
// and may be nil to re-cluster the current window (always nil for the
// very first window). The returned Result carries the usual one-shot
// fields plus Result.Stream; for a skipped window only Centroids and
// Stream are populated. Once the lifetime budget is exhausted, Advance
// returns ErrBudgetExhausted — permanently.
func (s *Session) Advance(newPoints [][]float64) (*Result, error) {
	start := time.Now()
	wr, err := s.inner.Advance(newPoints)
	if err != nil {
		return nil, err
	}
	info := &StreamInfo{
		Window:       wr.Window,
		EpsilonDrawn: wr.EpsilonDrawn,
		Skipped:      wr.Skipped,
		WarmStarted:  wr.WarmStarted,
		Drift:        wr.Drift,
		Budget:       budgetReport(wr.Budget),
	}
	if wr.Skipped {
		return &Result{
			Centroids:            wr.Centroids,
			ConvergedAtIteration: -1,
			Inertia:              math.NaN(),
			Elapsed:              time.Since(start),
			Stream:               info,
		}, nil
	}
	// The window consumed what the budget settled, not the upfront
	// reservation.
	info.EpsilonDrawn = wr.Trace.Privacy.Spent
	res := resultFromTrace(wr.Trace)
	res.Elapsed = time.Since(start)
	res.Stream = info
	return res, nil
}

// Window returns the index of the next window Advance would run.
func (s *Session) Window() int { return s.inner.Window() }

// Budget returns the stream's current longitudinal budget position.
func (s *Session) Budget() BudgetReport { return budgetReport(s.inner.Budget().Report()) }

func budgetReport(rep dp.Report) BudgetReport {
	return BudgetReport{
		LifetimeEpsilon: rep.Total,
		SpentEpsilon:    rep.Spent,
		Remaining:       rep.Remaining,
		Windows:         rep.Spends,
		Skips:           rep.Skips,
	}
}

// Close releases the session's arenas and key material. Idempotent.
func (s *Session) Close() { s.inner.Close() }
