package core

import (
	"errors"
	"fmt"
	"math"

	"chiaroscuro/internal/dp"
	"chiaroscuro/internal/vecpool"
)

// session.go turns the one-shot run lifecycle into a resumable streaming
// session: one RunSession opens the population once — its series arena
// and cipher suite (key material, randomizer pool, operation counters)
// — and keeps it, with the longitudinal privacy budget and one cycle
// driver (network, participants and their storage), across many
// clustering windows instead of rebuilding all of it per Cluster() call.
// Each window binds one full, independently seeded protocol run over
// that population (population.bind) and rebinds the driver to it
// (cycleDriver.bind), scheduled on Base.Workers exactly as Run schedules
// it, so every per-window determinism contract of the one-shot run
// carries over unchanged.

// SessionParams configures a streaming RunSession.
type SessionParams struct {
	// Base is the per-window protocol configuration. Base.Epsilon must
	// be zero: each window's epsilon is drawn from the lifetime budget
	// by the Spend strategy, not configured. Base.Seed seeds the whole
	// stream; every window derives its own independent seed from it
	// (fresh noise per window — re-using noise across disclosures of
	// overlapping data would correlate exactly what the Laplace
	// mechanism must decorrelate).
	Base Params
	// LifetimeEpsilon is the longitudinal privacy budget the whole
	// stream may spend. Required.
	LifetimeEpsilon float64
	// Windows is the planning horizon the spend strategy provisions
	// for (sessions may run fewer — or, budget permitting, more).
	// Default 8.
	Windows int
	// Spend draws each window's epsilon. Default dp.SpendUniform{}.
	Spend dp.SpendStrategy
	// WarmStart seeds each window's iteration-0 centroids with the
	// previous window's disclosed result instead of Base's initial
	// centroids. Only already-public data crosses the window boundary,
	// and only the starting centroids change — the per-window
	// determinism contracts are untouched.
	WarmStart bool
}

// WindowResult is the outcome of one RunSession.Advance.
type WindowResult struct {
	// Window is the 0-based window index.
	Window int
	// EpsilonDrawn is the budget reserved for this window (0 when
	// skipped); the session's budget settles it down to the actually
	// disclosed amount when the window converges early.
	EpsilonDrawn float64
	// Skipped marks a window the spend strategy elected not to
	// re-cluster: Trace is nil and Centroids carry the previous
	// window's disclosure forward.
	Skipped bool
	// WarmStarted reports whether this window's iteration 0 started
	// from the previous window's disclosed centroids.
	WarmStarted bool
	// Trace is the full per-window run trace (nil when skipped). Its
	// operation counts are per-window deltas even though the session
	// reuses one suite across windows; they are a one-shot run's counts
	// but for CombineCtxHits, which also counts the responder sets whose
	// combine plans an earlier window's use of the same key left cached.
	Trace *Trace
	// Centroids are the window's disclosed final centroids.
	Centroids [][]float64
	// Drift is the maximum centroid displacement between this window's
	// disclosure and the previous one (NaN for the first window).
	Drift float64
	// Budget is the longitudinal budget position after this window.
	Budget dp.Report
}

// RunSession is a resumable clustering session over an evolving
// population: the core tentpole of the streaming refactor. It owns the
// opened population (its flat series arena, advanced in place between
// windows, and its cipher suite), the cycle driver every window rebinds
// and the longitudinal dp.Budget; each Advance slides the window
// (optionally), draws budget, and executes one full protocol run.
//
// Determinism: window w of a session is bit-identical to a one-shot run
// over the same (slid) data with the same drawn epsilon, the derived
// window seed, and — under WarmStart — the previous window's disclosure
// as initial centroids. In particular sessions disclose bit-identical
// trajectories at any Base.Workers, window by window.
type RunSession struct {
	// pop.p is the defaulted Base with a placeholder epsilon: every
	// window replaces it with its own draw.
	pop *population
	// driver is the session's one cycle driver: built by the first
	// window that runs, bound again by every later one (cycleDriver.bind).
	driver  *cycleDriver
	planned int
	warm    bool
	spend   dp.SpendStrategy
	budget  *dp.Budget

	window int
	skips  int
	prev   [][]float64 // last disclosed centroids (warm-start seed)
	drift  float64     // disclosed drift between the last two windows
	closed bool
}

// sessionSeedStride decorrelates per-window seeds: window w runs at
// Base.Seed ^ (w · stride). The odd 64-bit constant (2⁶⁴/φ) spreads
// consecutive windows across the seed space; window 0 keeps Base.Seed
// itself, so a cold session's first window is bit-identical to a
// one-shot run at the session's base configuration.
const sessionSeedStride = -0x61c8864680b583eb // 0x9E3779B97F4A7C15 as int64

func sessionWindowSeed(base int64, window int) int64 {
	return base ^ (int64(window) * sessionSeedStride)
}

// NewRunSession validates the configuration and opens the population the
// windows will share: its series arena and its suite. Close the session
// to release it.
func NewRunSession(data [][]float64, sp SessionParams) (*RunSession, error) {
	if sp.Base.Epsilon != 0 {
		return nil, errors.New("core: session windows draw epsilon from the lifetime budget — leave Params.Epsilon zero")
	}
	if sp.LifetimeEpsilon <= 0 {
		return nil, fmt.Errorf("core: lifetime epsilon %v must be positive", sp.LifetimeEpsilon)
	}
	if sp.Windows < 0 {
		return nil, fmt.Errorf("core: planned windows %d must be non-negative", sp.Windows)
	}
	if !sp.Base.Faults.Empty() {
		return nil, errors.New("core: fault plans are not supported in streaming sessions yet")
	}
	planned := sp.Windows
	if planned == 0 {
		planned = 8
	}
	spend := sp.Spend
	if spend == nil {
		spend = dp.SpendUniform{}
	}
	budget, err := dp.NewBudget(sp.LifetimeEpsilon)
	if err != nil {
		return nil, err
	}
	// Validate the per-window shape once, with a placeholder epsilon
	// (the real one is drawn per window and is positive by the budget's
	// construction).
	probe := sp.Base
	probe.Epsilon = 1
	pop, err := openPopulation(data, probe)
	if err != nil {
		return nil, err
	}
	return &RunSession{
		pop:     pop,
		planned: planned,
		warm:    sp.WarmStart,
		spend:   spend,
		budget:  budget,
		drift:   math.NaN(),
	}, nil
}

// Window returns the index of the next window Advance would run.
func (s *RunSession) Window() int { return s.window }

// Budget returns the session's longitudinal privacy budget.
func (s *RunSession) Budget() *dp.Budget { return s.budget }

// Close releases the session's suite resources and its cycle driver.
// Further Advance calls are refused.
func (s *RunSession) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.driver = nil
	s.pop.close()
}

// advanceWindow slides the population's series by one window step
// without running a clustering: each participant's oldest samples are
// evicted and newPoints[i] lands at its tail (all rows the same width,
// between 1 and the series dimension, values in [0, MaxValue]).
func (s *RunSession) advanceWindow(newPoints [][]float64) error {
	n, dim := s.pop.series.NumRows(), s.pop.series.Cols()
	if len(newPoints) != n {
		return fmt.Errorf("core: window advance has %d series, population is %d", len(newPoints), n)
	}
	w := len(newPoints[0])
	if w < 1 || w > dim {
		return fmt.Errorf("core: window advance width %d outside [1, %d]", w, dim)
	}
	for i, row := range newPoints {
		if len(row) != w {
			return fmt.Errorf("core: ragged window advance — series %d has %d samples, want %d", i, len(row), w)
		}
		if t, v, bad := firstOutOfRange(row, s.pop.p.MaxValue); bad {
			return fmt.Errorf("core: series %d new value %v at %d outside [0, %v] — normalize first", i, v, t, s.pop.p.MaxValue)
		}
	}
	for i, row := range newPoints {
		if err := s.pop.series.SlideRow(i, row); err != nil {
			return err
		}
	}
	return nil
}

// Advance runs the next streaming window: slide the population by
// newPoints (nil re-clusters the current window), let the spend
// strategy draw this window's epsilon from the lifetime budget (or
// skip), and execute one full protocol run — warm-started from the
// previous disclosure when the session is configured for it. A session
// whose lifetime budget cannot fund the window refuses with
// dp.ErrBudgetExhausted; the session stays usable (a later strategy
// switch cannot conjure budget back, but skip-capable strategies may
// still skip).
func (s *RunSession) Advance(newPoints [][]float64) (*WindowResult, error) {
	if s.closed {
		return nil, errors.New("core: session is closed")
	}
	if newPoints != nil {
		if err := s.advanceWindow(newPoints); err != nil {
			return nil, err
		}
	}

	dec, err := s.spend.Decide(dp.SpendState{
		Remaining:        s.budget.Remaining(),
		Window:           s.window,
		PlannedWindows:   s.planned,
		Drift:            s.drift,
		ConsecutiveSkips: s.skips,
	})
	if err != nil {
		return nil, fmt.Errorf("core: spend strategy: %w", err)
	}
	if dec.Skip {
		if s.prev == nil {
			return nil, errors.New("core: spend strategy skipped the first window — nothing disclosed yet to carry forward")
		}
		s.budget.Skip(s.window)
		res := &WindowResult{
			Window:    s.window,
			Skipped:   true,
			Centroids: vecpool.CloneRows(s.prev),
			Drift:     s.drift,
			Budget:    s.budget.Report(),
		}
		s.window++
		s.skips++
		return res, nil
	}
	// A draw at (or below) floating-point dust of the lifetime budget
	// means the budget is exhausted for any useful disclosure: hard
	// refusal, in error text and in behaviour.
	if dec.Epsilon <= s.budget.Total()*1e-9 {
		return nil, fmt.Errorf("%w: window %d — lifetime budget %.6g has %.6g left",
			dp.ErrBudgetExhausted, s.window, s.budget.Total(), s.budget.Remaining())
	}

	wp := s.pop.p
	wp.Epsilon = dec.Epsilon
	wp.Seed = sessionWindowSeed(s.pop.p.Seed, s.window)
	warmed := false
	if s.warm && s.prev != nil {
		wp.InitialCentroids = s.prev
		warmed = true
	}
	// Snapshot the shared suite's cumulative counters so the window's
	// trace reports per-window operation deltas — what a one-shot run
	// over the same window would count, but for the combine plans the
	// key kept from earlier windows (WindowResult.Trace). Taken before
	// the bind, so anything binding ever counts belongs to the window,
	// exactly as it does on a fresh suite.
	opsBefore := s.pop.suite.Counts()
	r, err := s.pop.bind(wp)
	if err != nil {
		return nil, err
	}
	if err := s.budget.Spend(s.window, dec.Epsilon); err != nil {
		return nil, err
	}
	if s.driver == nil {
		s.driver = &cycleDriver{}
	}
	if err := s.driver.bind(r); err != nil {
		return nil, err
	}
	tr, err := s.driver.run()
	if err != nil {
		// The draw stays spent: a window that failed mid-run may
		// already have disclosed iterations, so refunding would
		// under-count the longitudinal spend.
		return nil, err
	}
	tr.Ops = opCountsMinus(tr.Ops, opsBefore)
	s.budget.Settle(s.window, tr.Privacy.Spent)

	drift := math.NaN()
	if s.prev != nil {
		drift = maxDisplacement(s.prev, tr.FinalCentroids)
	}
	res := &WindowResult{
		Window:       s.window,
		EpsilonDrawn: dec.Epsilon,
		WarmStarted:  warmed,
		Trace:        tr,
		Centroids:    vecpool.CloneRows(tr.FinalCentroids),
		Drift:        drift,
		Budget:       s.budget.Report(),
	}
	s.prev = vecpool.CloneRows(tr.FinalCentroids)
	s.drift = drift
	s.window++
	s.skips = 0
	return res, nil
}

// opCountsMinus returns the field-wise difference a − b: the per-window
// slice of a session-cumulative counter snapshot.
func opCountsMinus(a, b OpCounts) OpCounts {
	a.Encrypts -= b.Encrypts
	a.Adds -= b.Adds
	a.Halvings -= b.Halvings
	a.Doublings -= b.Doublings
	a.Refreshes -= b.Refreshes
	a.PartialDecrypts -= b.PartialDecrypts
	a.Combines -= b.Combines
	a.CombineCtxHits -= b.CombineCtxHits
	a.PartialCacheHits -= b.PartialCacheHits
	return a
}
