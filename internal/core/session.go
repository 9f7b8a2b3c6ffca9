package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"chiaroscuro/internal/dp"
	"chiaroscuro/internal/vecpool"
)

// session.go turns the one-shot run lifecycle into a resumable streaming
// session: one RunSession owns the population's series arena, the cipher
// suite (key material, randomizer pool, operation counters) and the
// longitudinal privacy budget across many clustering windows, instead of
// rebuilding all of it per Cluster() call. Each window is still a full,
// independently seeded protocol run — prepareRunOn re-binds the reused
// resources into a fresh runSetup — so every per-window determinism
// contract of the one-shot engines carries over unchanged.

// SessionEngine selects the execution engine of a session's windows.
// Only the deterministic cycle-driven engines are eligible: streaming
// warm-starts every window from the previous disclosure, and a
// nondeterministic window would poison every window after it.
type SessionEngine int

const (
	// SessionSequential drives each window with the sequential
	// cycle-driven engine (Run's scheduler).
	SessionSequential SessionEngine = iota
	// SessionSharded drives each window with the sharded engine
	// (RunSharded's scheduler) at Base.Workers workers — bit-identical
	// to SessionSequential at any worker count, per window.
	SessionSharded
)

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
	// Engine selects the per-window execution engine.
	Engine SessionEngine
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
	// reuses one suite across windows.
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
// flat series arena (advanced in place between windows), the cipher
// suite, and the longitudinal dp.Budget; each Advance slides the window
// (optionally), draws budget, and executes one full protocol run.
//
// Determinism: window w of a session is bit-identical to a one-shot run
// over the same (slid) data with the same drawn epsilon, the derived
// window seed, and — under WarmStart — the previous window's disclosure
// as initial centroids. In particular SessionSequential and
// SessionSharded sessions disclose bit-identical trajectories at any
// worker count, window by window.
type RunSession struct {
	base    Params // defaulted; Epsilon stays zero between windows
	planned int
	warm    bool
	engine  SessionEngine
	spend   dp.SpendStrategy
	budget  *dp.Budget
	series  *vecpool.Matrix
	suite   CipherSuite
	n, dim  int

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

// NewRunSession validates the configuration, range-checks and flattens
// the population's series into the session arena, and builds the suite
// the windows will share. Close the session to release it.
func NewRunSession(data [][]float64, sp SessionParams) (*RunSession, error) {
	if len(data) < 2 {
		return nil, errors.New("core: need at least 2 participants")
	}
	mat, err := vecpool.FromRows(data)
	if err != nil {
		return nil, err
	}
	n, dim := mat.NumRows(), mat.Cols()
	if sp.Base.Epsilon != 0 {
		return nil, errors.New("core: session windows draw epsilon from the lifetime budget — leave Params.Epsilon zero")
	}
	if sp.LifetimeEpsilon <= 0 {
		return nil, fmt.Errorf("core: lifetime epsilon %v must be positive", sp.LifetimeEpsilon)
	}
	if sp.Windows < 0 {
		return nil, fmt.Errorf("core: planned windows %d must be non-negative", sp.Windows)
	}
	if sp.Engine != SessionSequential && sp.Engine != SessionSharded {
		return nil, fmt.Errorf("core: unknown session engine %d", sp.Engine)
	}
	if !sp.Base.Faults.Empty() {
		return nil, errors.New("core: fault plans are not supported in streaming sessions yet")
	}
	if sp.Base.ChurnCrashProb != 0 || sp.Base.ChurnRejoinProb != 0 {
		return nil, errors.New("core: churn is not supported in streaming sessions yet")
	}
	base := sp.Base.withDefaults(n)
	// Validate the per-window shape once, with a placeholder epsilon
	// (the real one is drawn per window and is positive by the budget's
	// construction).
	probe := base
	probe.Epsilon = 1
	if err := probe.validate(n, dim); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if t, v, bad := firstOutOfRange(mat.Row(i), base.MaxValue); bad {
			return nil, fmt.Errorf("core: participant %d value %v at %d outside [0, %v] — normalize first", i, v, t, base.MaxValue)
		}
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
	// Build the shared suite once, exactly as prepareRunOn would for the
	// first window: every window re-binds it instead of re-keying.
	suite, err := buildSuite(base, n)
	if err != nil {
		return nil, err
	}
	return &RunSession{
		base:    base,
		planned: planned,
		warm:    sp.WarmStart,
		engine:  sp.Engine,
		spend:   spend,
		budget:  budget,
		series:  mat,
		suite:   suite,
		n:       n,
		dim:     dim,
		drift:   math.NaN(),
	}, nil
}

// buildSuite constructs the cipher suite for a defaulted Params. The
// Damgård–Jurik backend takes its key from (in precedence order)
// pre-computed ceremony material (networked daemons), an in-process key
// ceremony (Params.DKG), or the trusted dealer — kept as the oracle the
// ceremony paths are tested against.
func buildSuite(p Params, n int) (CipherSuite, error) {
	switch {
	case p.Backend == BackendDamgardJurik && p.DJMaterial != nil:
		return NewDamgardJurikSuiteFromMaterial(p.DJMaterial)
	case p.Backend == BackendDamgardJurik && p.DKG:
		return NewDamgardJurikDKGSuite(p.ModulusBits, p.Degree, n, p.DecryptThreshold, p.Seed, p.Faults)
	case p.Backend == BackendDamgardJurik:
		return NewDamgardJurikSuite(p.ModulusBits, p.Degree, n, p.DecryptThreshold)
	default:
		return NewPlainSuite(p.ModulusBits, p.Degree, n, p.DecryptThreshold)
	}
}

// Window returns the index of the next window Advance would run.
func (s *RunSession) Window() int { return s.window }

// Budget returns the session's longitudinal privacy budget.
func (s *RunSession) Budget() *dp.Budget { return s.budget }

// Close releases the session's suite resources. Further Advance calls
// are refused.
func (s *RunSession) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.suite.Close()
}

// advanceWindow slides the population's series by one window step
// without running a clustering: each participant's oldest samples are
// evicted and newPoints[i] lands at its tail (all rows the same width,
// between 1 and the series dimension, values in [0, MaxValue]).
func (s *RunSession) advanceWindow(newPoints [][]float64) error {
	if len(newPoints) != s.n {
		return fmt.Errorf("core: window advance has %d series, population is %d", len(newPoints), s.n)
	}
	w := len(newPoints[0])
	if w < 1 || w > s.dim {
		return fmt.Errorf("core: window advance width %d outside [1, %d]", w, s.dim)
	}
	for i, row := range newPoints {
		if len(row) != w {
			return fmt.Errorf("core: ragged window advance — series %d has %d samples, want %d", i, len(row), w)
		}
		if t, v, bad := firstOutOfRange(row, s.base.MaxValue); bad {
			return fmt.Errorf("core: series %d new value %v at %d outside [0, %v] — normalize first", i, v, t, s.base.MaxValue)
		}
	}
	for i, row := range newPoints {
		if err := s.series.SlideRow(i, row); err != nil {
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
			Centroids: deepCopyMatrix(s.prev),
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

	wp := s.base
	wp.Epsilon = dec.Epsilon
	wp.Seed = sessionWindowSeed(s.base.Seed, s.window)
	warmed := false
	if s.warm && s.prev != nil {
		wp.InitialCentroids = s.prev
		warmed = true
	}
	// Snapshot the shared suite's cumulative counters so the window's
	// trace reports per-window operation deltas — identical to what a
	// one-shot run over the same window would count. Taken before setup,
	// so anything prepareRunOn ever counts belongs to the window, exactly
	// as it does on a fresh suite.
	opsBefore := s.suite.Counts()
	rs, err := prepareRunOn(s.series, wp, s.suite)
	if err != nil {
		return nil, err
	}
	defer rs.close() // no-op for the session-owned suite, kept for symmetry
	if err := s.budget.Spend(s.window, dec.Epsilon); err != nil {
		return nil, err
	}
	workers := 1
	if s.engine == SessionSharded {
		workers = s.base.Workers
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
	}
	d, err := newCycleDriver(s.series.Rows(), rs, workers, 0)
	if err != nil {
		return nil, err
	}
	tr, err := d.run()
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
		Centroids:    deepCopyMatrix(tr.FinalCentroids),
		Drift:        drift,
		Budget:       s.budget.Report(),
	}
	s.prev = deepCopyMatrix(tr.FinalCentroids)
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
