// Package chiaroscuro is a Go implementation of Chiaroscuro (Allard,
// Hébrail, Masseglia, Pacitti — SIGMOD 2015; demonstrated at ICDE 2016):
// privacy-preserving k-means clustering of personal time-series that are
// massively distributed over honest-but-curious personal devices.
//
// The protocol never centralizes raw series. Per k-means iteration:
//
//  1. each participant assigns its own series to the closest of the
//     current differentially-private centroids (locally, in cleartext);
//  2. the per-cluster sums and counts — and the Laplace noise that will
//     protect them, assembled from per-participant gamma noise shares —
//     are aggregated under additively-homomorphic (Damgård–Jurik)
//     encryption by a push-sum gossip protocol;
//  3. the noise is added to the means while still encrypted, the
//     perturbed aggregate is opened by threshold ("collaborative")
//     decryption, and the resulting ε-differentially-private centroids
//     seed the next iteration.
//
// The two-sided working set — cleartext-but-perturbed centroids versus
// encrypted means — is the paper's Diptych data structure.
//
// Quick start:
//
//	series, _, _ := chiaroscuro.SyntheticCER(500, 24, 42)
//	chiaroscuro.Normalize01(series)
//	res, err := chiaroscuro.Cluster(series, chiaroscuro.Config{
//		K:       5,
//		Epsilon: 1.0,
//	})
//
// The simulation runs every participant as a node of a cycle-driven P2P
// network (mirroring the paper's Peersim platform), with either real
// threshold homomorphic encryption or the demonstration's accounted
// plaintext mode (identical distributed algorithms, measured crypto
// costs).
package chiaroscuro

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/datasets"
	"chiaroscuro/internal/dp"
	"chiaroscuro/internal/kmeans"
	"chiaroscuro/internal/quality"
	"chiaroscuro/internal/simnet"
	"chiaroscuro/internal/timeseries"
)

// Backend selects the encryption execution mode.
type Backend string

const (
	// BackendAccounted runs the identical distributed algorithms on
	// plaintext residues while accounting every homomorphic operation —
	// the demonstration platform's configuration (Sec. III.B).
	BackendAccounted Backend = "accounted"
	// BackendDamgardJurik runs real threshold Damgård–Jurik encryption
	// end to end. Use small populations and key sizes.
	BackendDamgardJurik Backend = "damgard-jurik"
)

// Smoothing configures the perturbed-mean smoothing heuristic.
// Method is one of "none", "moving-average", "exponential".
type Smoothing struct {
	Method string
	Window int     // moving-average width (default 3)
	Alpha  float64 // exponential factor (default 0.35)
}

// Config configures Cluster. Zero values take documented defaults.
type Config struct {
	// K is the number of clusters (profiles) to build. Required.
	K int
	// Epsilon is the global differential-privacy budget. Required.
	Epsilon float64
	// Iterations is the number of k-means iterations (default 8). The
	// budget is split across exactly this many disclosures.
	Iterations int
	// ConvergeThreshold enables early stopping when the maximum centroid
	// displacement drops below it (0 = disabled).
	ConvergeThreshold float64
	// GossipRounds is the number of gossip exchanges per participant per
	// aggregation (default ~log2(n)+10).
	GossipRounds int
	// DecryptThreshold is the number of distinct participants whose
	// partial decryptions open a ciphertext (default max(3, n/10)).
	DecryptThreshold int
	// Backend selects BackendAccounted (default) or BackendDamgardJurik.
	Backend Backend
	// Engine only picks the worker count of the one cycle-driven,
	// Peersim-like simulator (deterministic given Seed):
	//
	//   - "cycles" (default): one worker, a sequential pass per cycle.
	//   - "sharded": Workers shard workers per cycle with a
	//     deterministic reduction — bit-identical to "cycles" at any
	//     worker count, and the choice for large populations:
	//     wall-clock divides by the available cores.
	//
	// The real deployment, one process per participant over TCP, is the
	// chiaroscurod daemon, not an engine here; it discloses the same
	// trajectory as "cycles".
	Engine string
	// Workers is the shard-worker count of the "sharded" engine
	// (default GOMAXPROCS; ignored by "cycles"). Any value yields the
	// same results — it only trades wall-clock for cores — and the
	// effective count is capped at the population size and at
	// max(64, 4·GOMAXPROCS).
	Workers int
	// Packed is ignored: every run packs several coordinates into each
	// ciphertext (see docs/CRYPTO.md, "Slot packing"). It stays until the
	// benchmark, which sets it, stops doing so.
	Packed bool
	// ModulusBits is the encryption key size (default 1024 accounted /
	// 256 real; fixtures exist for 64–2048).
	ModulusBits int
	// Degree is the Damgård–Jurik s (default 1 = Paillier).
	Degree int
	// Strategy names the privacy-budget distribution heuristic:
	// "uniform" (default), "geo-increasing", "geo-decreasing",
	// "final-boost".
	Strategy string
	// Smoothing configures the perturbed-mean smoothing heuristic.
	Smoothing Smoothing
	// TrackInertia additionally discloses a differentially-private
	// estimate of the clustering objective (mean squared distance to the
	// closest centroid) each iteration — the paper's footnote-2
	// "monitoring centroids quality" extension. It raises the noise
	// scale slightly (the extra aggregate enters the sensitivity).
	TrackInertia bool
	// InertiaStopThreshold stops the run when the tracked inertia's
	// relative improvement falls below it (requires TrackInertia).
	InertiaStopThreshold float64
	// InitialCentroids optionally fixes the public starting centroids
	// (e.g. to share an init with a centralized baseline); each must
	// have the series dimension. When nil, data-independent uniform
	// random centroids are drawn from Seed.
	InitialCentroids [][]float64
	// Seed makes the whole run deterministic.
	Seed int64
	// Faults is a deterministic fault-injection scenario in the
	// internal/simnet grammar — semicolon-separated clauses:
	//
	//	drop=P  dup=P  delay=PxD          per-message link faults
	//	churn=P/R                         per-cycle crash probability P,
	//	                                  rejoin probability R (state kept)
	//	crash@C=ids                       crash-stop at cycle C
	//	outage@C+D=ids[:reset]            down D cycles (optional state loss)
	//	lag@C+D=ids                       laggards stalled D cycles
	//	garble=ids  malform=ids  replay=ids  noise*F=ids   byzantine senders
	//	seed=S                            pin the fault seed
	//
	// e.g. "drop=0.05;churn=0.02/0.3;outage@10+8=1,2:reset;garble=7".
	// The same seed and scenario replay the identical fault trajectory on
	// the cycles and sharded engines at any worker count, so a failing
	// scenario is a replayable regression test. Empty injects nothing.
	Faults string

	// --- Streaming fields (OpenStream only; Cluster rejects them) ---

	// LifetimeEpsilon is the longitudinal privacy budget of a streaming
	// session: every window's disclosure draws from it, and when it is
	// spent the session hard-refuses further windows. Required for
	// OpenStream; must be zero for Cluster (whose budget is Epsilon).
	LifetimeEpsilon float64
	// Windows is the streaming planning horizon the budget strategy
	// provisions for (default 8). Sessions may run fewer windows — or
	// more, budget permitting.
	Windows int
	// WarmStart seeds each window's starting centroids with the
	// previous window's disclosed result. Only already-public data
	// crosses the window boundary.
	WarmStart bool
	// BudgetStrategy names the per-window epsilon spend policy:
	// "uniform" (default — remaining budget split evenly over the
	// remaining horizon), "decaying" (half of what remains each
	// window), or "threshold" (re-cluster only when the disclosed
	// centroid drift exceeds DriftThreshold, skipping quiet windows to
	// save budget).
	BudgetStrategy string
	// DriftThreshold is the "threshold" strategy's drift bound
	// (default 0.05). Only meaningful with BudgetStrategy "threshold".
	DriftThreshold float64
}

// Iteration is one entry of the per-iteration trace.
type Iteration struct {
	// Index is the 0-based iteration number.
	Index int
	// Epsilon is the budget slice spent on this iteration's disclosure.
	Epsilon float64
	// Centroids are the disclosed (perturbed, smoothed) centroids.
	Centroids [][]float64
	// ExactCentroids are the oracle noise-free means under the same
	// assignments (computed outside the protocol, for evaluation only).
	ExactCentroids [][]float64
	// NoiseRMSE is the RMS perturbed-vs-exact difference — the demo's
	// "impact of the noise" graph (Fig. 3 panel 5).
	NoiseRMSE float64
	// Counts are the disclosed perturbed relative cluster sizes.
	Counts []float64
	// InertiaEstimate is the disclosed quality estimate when
	// Config.TrackInertia is set (NaN otherwise).
	InertiaEstimate float64
}

// PrivacyReport summarizes the differential-privacy position of a run.
type PrivacyReport struct {
	// EpsilonBudget and EpsilonSpent are the global budget and its
	// consumed part (they match unless the run stopped early).
	EpsilonBudget float64
	EpsilonSpent  float64
	// Disclosures is the number of budgeted releases.
	Disclosures int
	// GossipRelErr is the observed deviation of the disclosed relative
	// cluster sizes from their ideal sum of 1 — an aggregate indicator
	// of the protocol's distortion (gossip mixing plus realized count
	// noise), the reason the ε guarantee is "probabilistic". For a pure
	// measurement of the gossip approximation alone see experiment E10.
	GossipRelErr float64
}

// NetworkCost aggregates the network-side costs of the run.
type NetworkCost struct {
	MessagesSent    int
	MessagesDropped int
	BytesSent       int64
	Cycles          int
	// FaultDropped, Duplicated and Delayed count the messages the fault
	// scenario (Config.Faults) dropped, duplicated and delayed
	// (FaultDropped is included in MessagesDropped).
	FaultDropped int
	Duplicated   int
	Delayed      int
}

// CryptoOps counts homomorphic operations across all participants.
type CryptoOps struct {
	Encrypts int64
	Adds     int64
	// Halvings counts the cipher halvings of push-sum. Each is an
	// increment of the exponent carried beside the ciphertexts plus one
	// of Refreshes (the rerandomization of the copy that is sent) — not
	// an operation inside the ciphertext. Doublings counts the modular
	// squarings spent aligning exponents when shares halved a different
	// number of times are merged (none in a synchronized round).
	Halvings        int64
	Doublings       int64
	Refreshes       int64
	PartialDecrypts int64
	Combines        int64
	// CombineCtxHits counts combines whose responder-set plan (Lagrange
	// coefficients, multiexp tables) was served from cache instead of
	// rebuilt; PartialCacheHits counts decrypt requests answered from a
	// responder's memoized partials instead of recomputed.
	CombineCtxHits   int64
	PartialCacheHits int64
}

// DecryptPhaseCost breaks the collaborative-decryption phase (paper
// steps 2c/2d) out of the aggregate network and timing figures.
type DecryptPhaseCost struct {
	// Cycles and Wall are the decrypt-classified share of the engine's
	// schedule and wall clock.
	Cycles int
	Wall   time.Duration
	// Requests and Bytes are the decrypt requests sent and the request
	// plus response bytes across the population.
	Requests int
	Bytes    int64
}

// Result is the outcome of a Cluster run.
type Result struct {
	// Centroids are the final privacy-preserving profiles.
	Centroids [][]float64
	// Assignments maps each participant to its closest final centroid.
	Assignments []int
	// Inertia is the within-cluster sum of squared distances.
	Inertia float64
	// ConvergedAtIteration is -1 unless early stopping triggered.
	ConvergedAtIteration int
	// Trace holds the per-iteration evolution (the demo's slide-bar
	// graphs).
	Trace []Iteration

	Privacy PrivacyReport
	Network NetworkCost
	Crypto  CryptoOps
	// Decrypt is the decrypt-phase slice of the run's cost.
	Decrypt DecryptPhaseCost

	// DecryptFailures counts iterations where some participant could
	// not assemble a decryption quorum (only under churn or faults).
	DecryptFailures int
	// Completed counts participants that finished their full iteration
	// schedule — the quorum-liveness measure of the fault experiments.
	Completed int
	// Elapsed is the wall-clock simulation time.
	Elapsed time.Duration

	// Stream is the per-window streaming context when this Result came
	// from Session.Advance (nil for one-shot Cluster results).
	Stream *StreamInfo
}

// Cluster runs the full Chiaroscuro protocol over the participants'
// series (one per participant, values in [0,1] — see Normalize01).
func Cluster(series [][]float64, cfg Config) (*Result, error) {
	params, err := cfg.toParams()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	trace, err := core.Run(series, params)
	if err != nil {
		return nil, err
	}
	res := resultFromTrace(trace)
	res.Elapsed = time.Since(start)
	return res, nil
}

// resultFromTrace maps a core trace onto the public Result shape — the
// single translation point shared by Cluster and the streaming
// Session.Advance. Elapsed is the caller's to fill.
func resultFromTrace(trace *core.Trace) *Result {
	res := &Result{
		Centroids:            trace.FinalCentroids,
		Assignments:          trace.Assignments,
		Inertia:              trace.Inertia,
		ConvergedAtIteration: trace.ConvergedAtIteration,
		Privacy: PrivacyReport{
			EpsilonBudget: trace.Privacy.Total,
			EpsilonSpent:  trace.Privacy.Spent,
			Disclosures:   trace.Privacy.Spends,
			GossipRelErr:  trace.GossipRelErr,
		},
		Network: NetworkCost{
			MessagesSent:    trace.NetStats.MessagesSent,
			MessagesDropped: trace.NetStats.MessagesDropped,
			BytesSent:       trace.NetStats.BytesSent,
			Cycles:          trace.CyclesRun,
			FaultDropped:    trace.NetStats.FaultDrops,
			Duplicated:      trace.NetStats.Duplicates,
			Delayed:         trace.NetStats.Delayed,
		},
		Crypto: CryptoOps{
			Encrypts:         trace.Ops.Encrypts,
			Adds:             trace.Ops.Adds,
			Halvings:         trace.Ops.Halvings,
			Doublings:        trace.Ops.Doublings,
			Refreshes:        trace.Ops.Refreshes,
			PartialDecrypts:  trace.Ops.PartialDecrypts,
			Combines:         trace.Ops.Combines,
			CombineCtxHits:   trace.Ops.CombineCtxHits,
			PartialCacheHits: trace.Ops.PartialCacheHits,
		},
		Decrypt: DecryptPhaseCost{
			Cycles:   trace.Phases.DecryptCycles,
			Wall:     trace.Phases.DecryptTime,
			Requests: trace.DecryptRequests,
			Bytes:    trace.DecryptBytes,
		},
		DecryptFailures: trace.DecryptFailures,
		Completed:       trace.Completed,
	}
	for _, it := range trace.Iterations {
		res.Trace = append(res.Trace, Iteration{
			Index:           it.Iteration,
			Epsilon:         it.Epsilon,
			Centroids:       it.PerturbedCentroids,
			ExactCentroids:  it.ExactCentroids,
			NoiseRMSE:       it.NoiseRMSE,
			Counts:          it.PerturbedCounts,
			InertiaEstimate: it.PerturbedInertia,
		})
	}
	return res
}

// toParams is the one-shot (Cluster) configuration path: Epsilon is the
// whole budget and the streaming fields must be unset.
func (cfg Config) toParams() (core.Params, error) {
	var p core.Params
	switch {
	case cfg.LifetimeEpsilon != 0:
		return p, errors.New("chiaroscuro: Config.LifetimeEpsilon is a streaming option — use OpenStream")
	case cfg.Windows != 0:
		return p, errors.New("chiaroscuro: Config.Windows is a streaming option — use OpenStream")
	case cfg.WarmStart:
		return p, errors.New("chiaroscuro: Config.WarmStart is a streaming option — use OpenStream")
	case cfg.BudgetStrategy != "":
		return p, errors.New("chiaroscuro: Config.BudgetStrategy is a streaming option — use OpenStream")
	case cfg.DriftThreshold != 0:
		return p, errors.New("chiaroscuro: Config.DriftThreshold is a streaming option — use OpenStream")
	}
	if !(cfg.Epsilon > 0) || math.IsInf(cfg.Epsilon, 0) {
		return p, errors.New("chiaroscuro: Config.Epsilon must be positive and finite")
	}
	p, err := cfg.baseParams()
	if err != nil {
		return p, err
	}
	p.Epsilon = cfg.Epsilon
	return p, nil
}

// baseParams maps the protocol-shape part of Config — everything shared
// by the one-shot and streaming paths — onto core.Params, leaving the
// budget (Epsilon) to the caller. It is the one place Config.Engine is
// resolved: to the Workers of core.Params.
func (cfg Config) baseParams() (core.Params, error) {
	var p core.Params
	if cfg.K < 1 {
		return p, errors.New("chiaroscuro: Config.K is required")
	}
	if cfg.Workers < 0 {
		return p, fmt.Errorf("chiaroscuro: Config.Workers must be non-negative, got %d", cfg.Workers)
	}
	strategy, err := dp.StrategyByName(cfg.Strategy)
	if err != nil {
		return p, err
	}
	var sm core.SmoothingSpec
	switch cfg.Smoothing.Method {
	case "", "none":
		sm.Method = core.SmoothingNone
	case "moving-average":
		sm.Method = core.SmoothingMovingAverage
		sm.Window = cfg.Smoothing.Window
	case "exponential":
		sm.Method = core.SmoothingExponential
		sm.Alpha = cfg.Smoothing.Alpha
	default:
		return p, fmt.Errorf("chiaroscuro: unknown smoothing method %q", cfg.Smoothing.Method)
	}
	var backend core.Backend
	switch cfg.Backend {
	case "", BackendAccounted:
		backend = core.BackendPlainAccounted
	case BackendDamgardJurik:
		backend = core.BackendDamgardJurik
	default:
		return p, fmt.Errorf("chiaroscuro: unknown backend %q", cfg.Backend)
	}
	var faults *simnet.Plan
	if cfg.Faults != "" {
		faults, err = simnet.ParsePlan(cfg.Faults)
		if err != nil {
			return p, fmt.Errorf("chiaroscuro: Config.Faults: %w", err)
		}
	}
	workers := 1
	switch cfg.Engine {
	case "", "cycles":
	case "sharded":
		workers = cfg.Workers
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
	default:
		return p, fmt.Errorf("chiaroscuro: unknown engine %q (want cycles or sharded)", cfg.Engine)
	}
	return core.Params{
		K:                    cfg.K,
		Iterations:           cfg.Iterations,
		ConvergeThreshold:    cfg.ConvergeThreshold,
		GossipRounds:         cfg.GossipRounds,
		DecryptThreshold:     cfg.DecryptThreshold,
		Backend:              backend,
		ModulusBits:          cfg.ModulusBits,
		Degree:               cfg.Degree,
		Strategy:             strategy,
		Smoothing:            sm,
		TrackInertia:         cfg.TrackInertia,
		InertiaStopThreshold: cfg.InertiaStopThreshold,
		InitialCentroids:     cfg.InitialCentroids,
		Seed:                 cfg.Seed,
		Workers:              workers,
		MaxValue:             1,
		Faults:               faults,
	}, nil
}

// --- Baseline, search and data helpers -------------------------------------

// KMeansResult is the centralized baseline outcome.
type KMeansResult struct {
	Centroids   [][]float64
	Assignments []int
	Inertia     float64
	Iterations  int
}

// CentralizedKMeans runs the plain Lloyd's k-means the demo compares
// against, on pooled cleartext data (no privacy). When initial is nil, a
// seeded random-point init is used.
func CentralizedKMeans(series [][]float64, k, iterations int, seed int64, initial [][]float64) (*KMeansResult, error) {
	opt := kmeans.Options{K: k, MaxIter: iterations, Seed: seed}
	if initial != nil {
		opt.Init = kmeans.InitProvided
		opt.Initial = initial
	}
	r, err := kmeans.Run(series, opt)
	if err != nil {
		return nil, err
	}
	return &KMeansResult{
		Centroids:   r.Centroids,
		Assignments: r.Assignments,
		Inertia:     r.Inertia,
		Iterations:  r.Iterations,
	}, nil
}

// ProfileMatch is one result of FindClosestProfiles.
type ProfileMatch struct {
	// Profile is the centroid index.
	Profile int
	// Offset is where the query aligned best within the profile.
	Offset int
	// Distance is the Euclidean distance at the best alignment.
	Distance float64
}

// FindClosestProfiles implements the demonstration's interactive use case
// (Fig. 3 panel 6): given the published cluster profiles and a
// subsequence of an individual's own series, return the m closest
// profiles under best-alignment Euclidean distance.
func FindClosestProfiles(profiles [][]float64, query []float64, m int) ([]ProfileMatch, error) {
	ps := make([]timeseries.Series, len(profiles))
	for i, p := range profiles {
		ps[i] = timeseries.Series(p)
	}
	matches, err := timeseries.ClosestProfiles(ps, timeseries.Series(query), m)
	if err != nil {
		return nil, err
	}
	out := make([]ProfileMatch, len(matches))
	for i, mm := range matches {
		out[i] = ProfileMatch{Profile: mm.Profile, Offset: mm.Offset, Distance: mm.Distance}
	}
	return out, nil
}

// LevelInit builds k data-independent initial centroids for series
// normalized to [0,1]: constant curves at the levels (j+0.5)/k. Unlike
// sampling data points (the usual k-means init), level centroids disclose
// nothing about anyone's series, and unlike uniform random vectors they
// lie near the manifold of smooth normalized curves. Pass the result as
// Config.InitialCentroids — and as the baseline's initial centroids when
// comparing, so both systems start identically.
func LevelInit(k, dim int) [][]float64 {
	out := make([][]float64, k)
	for j := range out {
		level := (float64(j) + 0.5) / float64(k)
		c := make([]float64, dim)
		for t := range c {
			c[t] = level
		}
		out[j] = c
	}
	return out
}

// ScaleEpsilonForPopulation implements the demonstration's population
// scaling rule (Sec. III.B, point 4): when simulating a small population
// in place of the target deployment, the differential-privacy level is
// rescaled so that the "noise magnitude / population size" ratio is
// preserved. The Laplace noise has scale Δ/ε and the disclosed aggregate
// scales with the population, so simulating targetPop participants'
// noise impact with simPop participants requires
//
//	ε_sim = ε_target · targetPop / simPop.
//
// The returned value is what to pass as Config.Epsilon; the privacy
// guarantee actually enforced in the simulation is ε_sim, while the
// noise impact on quality matches a targetPop-deployment at ε_target.
func ScaleEpsilonForPopulation(epsilonTarget float64, targetPop, simPop int) (float64, error) {
	if epsilonTarget <= 0 || targetPop < 1 || simPop < 1 {
		return 0, fmt.Errorf("chiaroscuro: invalid scaling arguments (ε=%v, target=%d, sim=%d)",
			epsilonTarget, targetPop, simPop)
	}
	return epsilonTarget * float64(targetPop) / float64(simPop), nil
}

// Normalize01 rescales all series jointly into [0,1] in place (the
// bounded domain the privacy analysis requires) and returns the applied
// transform: normalized = (raw - offset) * scale.
func Normalize01(series [][]float64) (offset, scale float64, err error) {
	set := make([]timeseries.Series, len(series))
	for i := range series {
		set[i] = timeseries.Series(series[i])
	}
	n, err := timeseries.NormalizeMinMax(set)
	if err != nil {
		return 0, 0, err
	}
	return n.Offset, n.Scale, nil
}

// SyntheticCERErr generates the CER-like electricity-consumption
// workload (see internal/datasets for the substitution rationale): n
// households, dim samples per day. Returns the series, ground-truth
// archetype labels and archetype names, or an error for invalid options
// (n < 1; a dim < 2 falls back to the generator's default of 48).
func SyntheticCERErr(n, dim int, seed int64) ([][]float64, []int, []string, error) {
	d, err := datasets.CER(datasets.CEROptions{N: n, Dim: dim, Seed: seed})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("chiaroscuro: %w", err)
	}
	return d.Series, d.Labels, d.ArchetypeNames, nil
}

// SyntheticCER is SyntheticCERErr for known-good options: it panics on
// invalid ones (n < 1) instead of returning an error — convenient in
// examples and benchmarks, hostile in library code. Prefer
// SyntheticCERErr when n comes from user input.
func SyntheticCER(n, dim int, seed int64) ([][]float64, []int, []string) {
	series, labels, names, err := SyntheticCERErr(n, dim, seed)
	if err != nil {
		panic(err)
	}
	return series, labels, names
}

// SyntheticTumorGrowthErr generates the NUMED-like tumor-growth
// workload from the Claret et al. model: n patients observed over the
// given number of weeks. Returns an error for invalid options (n < 1; a
// weeks < 2 falls back to the generator's default of 20).
func SyntheticTumorGrowthErr(n, weeks int, seed int64) ([][]float64, []int, []string, error) {
	d, err := datasets.TumorGrowth(datasets.TumorOptions{N: n, Weeks: weeks, Seed: seed})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("chiaroscuro: %w", err)
	}
	return d.Series, d.Labels, d.ArchetypeNames, nil
}

// SyntheticTumorGrowth is SyntheticTumorGrowthErr for known-good
// options: it panics on invalid ones (n < 1). Prefer the Err variant
// when n comes from user input.
func SyntheticTumorGrowth(n, weeks int, seed int64) ([][]float64, []int, []string) {
	series, labels, names, err := SyntheticTumorGrowthErr(n, weeks, seed)
	if err != nil {
		panic(err)
	}
	return series, labels, names
}

// CompareToBaseline reports quality of a Chiaroscuro result against a
// centralized baseline on the same data: the inertia ratio (>= 1; 1 is
// parity), the RMSE between matched centroid sets, and the ARI between
// the two assignments.
func CompareToBaseline(res *Result, base *KMeansResult) (inertiaRatio, centroidRMSE, ari float64, err error) {
	if res == nil || base == nil {
		return 0, 0, 0, errors.New("chiaroscuro: nil results")
	}
	if base.Inertia > 0 {
		inertiaRatio = res.Inertia / base.Inertia
	} else {
		inertiaRatio = 1
	}
	centroidRMSE, err = quality.CentroidRMSE(res.Centroids, base.Centroids)
	if err != nil {
		return 0, 0, 0, err
	}
	ari, err = quality.ARI(res.Assignments, base.Assignments)
	if err != nil {
		return 0, 0, 0, err
	}
	return inertiaRatio, centroidRMSE, ari, nil
}
