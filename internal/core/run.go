package core

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"runtime"

	"chiaroscuro/internal/compactrng"
	"chiaroscuro/internal/dp"
	"chiaroscuro/internal/fixedpoint"
	"chiaroscuro/internal/gossip"
	"chiaroscuro/internal/p2p"
	"chiaroscuro/internal/vecpool"
)

// poolBurst sizes the randomizer pool from the run's concurrency and the
// fused encrypted-vector length: each in-flight activation consumes up to
// vectorLen randomizers (one rerandomization per emitted ciphertext), and
// up to the effective worker count of activations run concurrently in
// the sharded engine (GOMAXPROCS when Workers is unset). The requested
// Workers is clamped by the same rule the p2p scheduler applies —
// population size and max(64, 4·GOMAXPROCS) — so an oversized Workers
// request cannot balloon the pool past the true concurrency. Doubled so the background refill has a cycle of slack.
// Even the sequential engine warrants the full buffer: all n
// participants share the suite, so the single-threaded consumer drains
// vectorLen randomizers per activation while the filler pipelines ahead.
func poolBurst(p Params, population, vectorLen int) int {
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	lim := 4 * runtime.GOMAXPROCS(0)
	if lim < 64 {
		lim = 64
	}
	if workers > lim {
		workers = lim
	}
	if workers > population {
		workers = population
	}
	return 2 * workers * vectorLen
}

// TraceIteration is the per-iteration record of a run, pairing what was
// actually disclosed (perturbed centroids/counts) with oracle quantities
// the harness computes outside the protocol (exact means given the same
// assignments) — the data behind the demo's Fig. 3 panels 4 and 5.
type TraceIteration struct {
	Iteration          int
	Epsilon            float64
	PerturbedCentroids [][]float64
	PerturbedCounts    []float64
	// ExactCentroids are the noise-free means the same assignments would
	// have produced (oracle; never computed inside the protocol).
	ExactCentroids [][]float64
	ExactCounts    []int
	// NoiseRMSE is the RMS difference perturbed-vs-exact across all
	// centroid coordinates (index-matched: same clusters).
	NoiseRMSE float64
	// PerturbedInertia is the disclosed quality estimate (mean squared
	// distance to closest centroid) when Params.TrackInertia is set;
	// NaN otherwise.
	PerturbedInertia float64
	CompletedAtCycle int
}

// Trace is the complete observable outcome of a run.
type Trace struct {
	Params     Params
	Iterations []TraceIteration

	FinalCentroids [][]float64
	// Assignments[i] is participant i's cluster under the final
	// centroids (computed by the harness over the cleartext data; inside
	// the protocol each participant only knows its own).
	Assignments []int
	// Inertia is the within-cluster sum of squared distances of the data
	// to FinalCentroids.
	Inertia float64

	// ConvergedAtIteration is the 0-based iteration after which the
	// observer converged, or -1 if it ran all iterations.
	ConvergedAtIteration int

	Privacy  dp.Report
	NetStats p2p.Stats
	Ops      OpCounts

	CyclesRun       int
	DecryptFailures int
	StaleDrops      int
	// DecryptRequests and DecryptBytes account the decrypt phase's wire
	// traffic across the population: requests sent, and request plus
	// response bytes — the figure the outstanding-request window shrinks.
	DecryptRequests int
	DecryptBytes    int64
	// Phases breaks the engines' wall clock down by protocol phase.
	Phases PhaseProfile
	// Completed counts participants that finished their full iteration
	// schedule — the quorum-liveness measure of the fault experiments
	// (E11): faults can only lower it from the population size.
	Completed int
}

// runSetup bundles everything prepareRun validates and constructs; the
// cycle-driven engines, streaming sessions and networked Nodes all start
// from it.
type runSetup struct {
	p          Params
	epsSched   []float64
	accountant *dp.Accountant
	suite      CipherSuite
	shared     *runShared
	initial    [][]float64
	// series is the population's data in one flat arena (row i is
	// participant i's series): at large N the contiguous layout replaces
	// N separate slice objects with two slabs, which both the garbage
	// collector and the assignment step's linear scans prefer.
	series *vecpool.Matrix
	// ownsSuite is false when the suite was handed in by a RunSession
	// (which keeps it — and its randomizer pool — alive across windows);
	// close then leaves it alone.
	ownsSuite bool
}

// close releases suite-held resources — today the Damgård–Jurik
// backend's randomizer-pool background refill. Each engine defers it
// once its prepareRun succeeds. Session-owned suites outlive the setup:
// the session closes them once, at session close.
func (rs *runSetup) close() {
	if rs.ownsSuite {
		rs.suite.Close()
	}
}

// newParticipant builds one participant over the shared run state (its
// series is the participant's row of the flat series arena). A node the
// fault plan marks byzantine carries its corruption behaviour.
func (rs *runSetup) newParticipant(id p2p.NodeID) *participant {
	// A compact splitmix64 source: 16 bytes instead of the standard
	// source's ~5 KB, which at large N made per-participant RNG state
	// the single biggest heap consumer. Retained beside the rand.Rand
	// so Snapshot can read it.
	src := compactrng.New(rs.p.Seed ^ (int64(id)+1)*0x5851F42D4C957F2D)
	pt := &participant{
		id:     id,
		series: rs.series.Row(int(id)),
		run:    rs.shared,
		rng:    rand.New(src),
		rngSrc: src,
		byz:    rs.p.Faults.ByzantineOf(int(id)),
		diptych: Diptych{
			Centroids: deepCopyMatrix(rs.initial),
		},
	}
	if h := rs.shared.batchHint; h > 0 {
		// Allocation-measurement mode: pre-size the per-activation
		// scratch so no in-degree spike can ever grow it (the per-
		// iteration push-sum column is reserved in stepAssign).
		pt.absorbBatch = make([]*gossip.Message[Cipher], 0, h)
		pt.gossipScratch = make([]*gossipPayload, 0, h)
		pt.respScratch = make([]*decryptResponse, 0, h)
	}
	return pt
}

// Run executes the full Chiaroscuro protocol over the given cleartext
// series (one per participant, all in [0, MaxValue]^dim) on the simulated
// network, sequentially, and returns the trace. Everything is
// deterministic given Params.Seed. RunSharded executes the identical
// simulation across shard workers and produces a bit-identical trace.
func Run(data [][]float64, params Params) (*Trace, error) {
	_, tr, err := runCycles(data, params, 1)
	return tr, err
}

// runCycles is the one body of the cycle-driven engines: prepare the
// run, drive it to completion on the given number of shard workers (1 is
// the sequential engine) and return the driver beside the trace, for a
// caller that reads the participants afterwards.
func runCycles(data [][]float64, params Params, workers int) (*cycleDriver, *Trace, error) {
	rs, err := prepareRun(data, params)
	if err != nil {
		return nil, nil, err
	}
	defer rs.close()
	if workers < 1 {
		return nil, nil, fmt.Errorf("core: invalid worker count %d", workers)
	}
	d, err := newCycleDriver(data, rs, workers, 0)
	if err != nil {
		return nil, nil, err
	}
	tr, err := d.run()
	return d, tr, err
}

// initialCentroids returns the run's public iteration-1 centroids for a
// defaulted Params: the caller-supplied matrix, or K data-independent
// uniform random vectors drawn from Seed. Factored out of prepareRun so
// ConfigFingerprint can digest the identical matrix without building a
// suite.
func initialCentroids(p Params, dim int) [][]float64 {
	if p.InitialCentroids != nil {
		return p.InitialCentroids
	}
	rng := rand.New(rand.NewSource(p.Seed))
	initial := make([][]float64, p.K)
	for j := range initial {
		c := make([]float64, dim)
		for t := range c {
			c[t] = rng.Float64() * p.MaxValue
		}
		initial[j] = c
	}
	return initial
}

// prepareRun validates the inputs and constructs the run-wide state for
// a one-shot run: data checks, then a fresh flat series arena, then the
// suite-and-shared-state construction of prepareRunOn.
func prepareRun(data [][]float64, params Params) (*runSetup, error) {
	n := len(data)
	if n < 2 {
		return nil, errors.New("core: need at least 2 participants")
	}
	dim := len(data[0])
	p := params.withDefaults(n)
	if err := p.validate(n, dim); err != nil {
		return nil, err
	}
	for i, s := range data {
		if len(s) != dim {
			return nil, fmt.Errorf("core: participant %d has dim %d, want %d", i, len(s), dim)
		}
		if t, v, bad := firstOutOfRange(s, p.MaxValue); bad {
			return nil, fmt.Errorf("core: participant %d value %v at %d outside [0, %v] — normalize first", i, v, t, p.MaxValue)
		}
	}
	// Flatten the population's series into one contiguous arena; every
	// participant gets a row view (values unchanged, so trajectories
	// are too).
	seriesMat, err := vecpool.FromRows(data)
	if err != nil {
		return nil, err
	}
	return prepareRunOn(seriesMat, p, nil)
}

// firstOutOfRange returns the first sample of row outside [0, max] (with
// a 1e-9 tolerance), and whether there is one. The comparison is written
// so that NaN counts as out of range.
func firstOutOfRange(row []float64, max float64) (t int, v float64, bad bool) {
	for t, v := range row {
		if !(v >= -1e-9 && v <= max+1e-9) {
			return t, v, true
		}
	}
	return 0, 0, false
}

// prepareRunOn constructs the run-wide state over an existing series
// arena — the reusable half of prepareRun. p must already be defaulted
// and validated, and the series values already range-checked (prepareRun
// does both for one-shot runs; a RunSession does them at open and on
// every window advance). reuseSuite, when non-nil, is re-bound instead
// of building a fresh suite — the session path, which keeps one suite
// (key material, randomizer pool, operation counters) alive across
// windows; the returned setup then does not own it and close leaves it
// running.
func prepareRunOn(seriesMat *vecpool.Matrix, p Params, reuseSuite CipherSuite) (*runSetup, error) {
	n := seriesMat.NumRows()
	dim := seriesMat.Cols()

	// Privacy schedule and accounting. The full schedule is validated
	// against the budget up front (a misbehaving strategy must fail fast)
	// but actual spending is recorded per completed iteration, so early
	// convergence leaves budget unspent.
	accountant, err := dp.NewAccountant(p.Epsilon)
	if err != nil {
		return nil, err
	}
	epsSched, err := p.Strategy.Allocate(p.Epsilon, p.Iterations)
	if err != nil {
		return nil, err
	}
	{
		dryRun, err := dp.NewAccountant(p.Epsilon)
		if err != nil {
			return nil, err
		}
		for i, e := range epsSched {
			if err := dryRun.Spend(fmt.Sprintf("iteration-%d", i), e); err != nil {
				return nil, fmt.Errorf("core: budget strategy overruns: %w", err)
			}
		}
	}

	suite := reuseSuite
	ownsSuite := suite == nil
	if suite == nil {
		if suite, err = buildSuite(p, n); err != nil {
			return nil, err
		}
	}
	// From here on a freshly built suite owns background resources (the
	// DJ randomizer pool); release them on every failed setup path. A
	// reused (session-owned) suite stays alive regardless: the session
	// closes it once.
	setupOK := false
	defer func() {
		if !setupOK && ownsSuite {
			suite.Close()
		}
	}()

	// Fixed-point codec and the one packing of the encrypted side: each
	// side travels as ⌈sideLen/slots⌉ ciphertexts, its coordinates the
	// headroom budget's width apart.
	codec, err := fixedpoint.New(p.FracBits)
	if err != nil {
		return nil, err
	}
	preScale := p.preScaleBits()
	coordBound, noiseBound := p.noiseEnvelope(dim, epsSched)
	plainMod := suite.PlainModulus()
	layout, err := slotLayout(plainMod.BitLen()-1, n, coordBound, noiseBound, p.FracBits, preScale)
	if err != nil {
		return nil, err
	}
	sideLen := p.K * (dim + 1)
	if p.TrackInertia {
		sideLen++
	}
	sideCiphers := layout.Groups(sideLen)
	// Size the Damgård–Jurik randomizer pool for the run's actual burst
	// before the suite performs its first encryption: every activation in
	// the gossip phase rerandomizes the full fused vector it emits,
	// concurrently across shard workers, so the default capacity starves
	// wide runs and over-provisions narrow ones.
	suite.SizePool(poolBurst(p, n, 2*sideCiphers))

	// Public, data-independent initial centroids.
	initial := initialCentroids(p, dim)
	// Decoded per-coordinate magnitudes are relative aggregates: bounded
	// by the largest coordinate bound plus noise, with slack. Anything
	// beyond signals a broken gossip invariant and fails the decode.
	decodeBound := 4 * (coordBound + noiseBound)
	shared := &runShared{
		params:        p,
		dim:           dim,
		population:    n,
		suite:         suite,
		ring:          cipherRing{suite},
		codec:         codec,
		plainMod:      plainMod,
		halfMod:       new(big.Int).Rsh(plainMod, 1),
		preScale:      preScale,
		epsSched:      epsSched,
		noiseBound:    noiseBound,
		vecLen:        p.K * (dim + 1),
		sideLen:       sideLen,
		sideCiphers:   sideCiphers,
		layout:        layout,
		decodeBound:   decodeBound,
		centroidBytes: p.K * dim * 8,
		// Byzantine fault plans turn on wire validation of incoming gossip:
		// every absorbed message's weight and ciphertexts are checked before
		// they can touch the push-sum state. The honest-run hot path stays
		// validation-free (trajectory and cost unchanged).
		validate: p.Faults.HasByzantine(),
		// Where emissions are stored (see participant.emit): without a
		// fault plan every message is consumed by the end of the cycle
		// after it was sent (no delayed queues, laggard stalls or
		// replaying byzantines; churn is fine — crashes clear queues), so
		// two cycle-parity buffers per participant suffice. A fault plan
		// may hold a message arbitrarily long.
		parityEmits: p.Faults.Empty(),
	}
	shared.scratch.New = func() any { return shared.newCodecScratch() }

	setupOK = true
	return &runSetup{
		p:          p,
		epsSched:   epsSched,
		accountant: accountant,
		suite:      suite,
		shared:     shared,
		initial:    initial,
		series:     seriesMat,
		ownsSuite:  ownsSuite,
	}, nil
}

func buildTrace(data [][]float64, p Params, participants []*participant, cycles int, stats p2p.Stats, suite CipherSuite, accountant *dp.Accountant) (*Trace, error) {
	n := len(data)
	dim := len(data[0])

	// Observer: the participant with the longest completed history.
	observer := participants[0]
	for _, pt := range participants {
		if len(pt.history) > len(observer.history) {
			observer = pt
		}
	}
	if len(observer.history) == 0 {
		return nil, errors.New("core: no participant completed any iteration (network too hostile?)")
	}

	tr := &Trace{
		Params:               p,
		ConvergedAtIteration: -1,
		CyclesRun:            cycles,
		NetStats:             stats,
	}

	for i, rec := range observer.history {
		if err := accountant.Spend(fmt.Sprintf("iteration-%d", rec.Iteration), rec.Epsilon); err != nil {
			return nil, fmt.Errorf("core: accounting: %w", err)
		}
		ti := TraceIteration{
			Iteration:          rec.Iteration,
			Epsilon:            rec.Epsilon,
			PerturbedCentroids: rec.PerturbedCentroids,
			PerturbedCounts:    rec.PerturbedCounts,
			PerturbedInertia:   rec.PerturbedInertia,
			CompletedAtCycle:   rec.CompletedAtCycle,
		}
		// Oracle: exact means under the participants' actual iteration-i
		// assignments.
		sums := make([][]float64, p.K)
		for j := range sums {
			sums[j] = make([]float64, dim)
		}
		counts := make([]int, p.K)
		for _, pt := range participants {
			if i >= len(pt.history) || pt.history[i].Iteration != rec.Iteration {
				continue
			}
			a := pt.history[i].Assignment
			counts[a]++
			for t, v := range pt.series {
				sums[a][t] += v
			}
		}
		exact := make([][]float64, p.K)
		var sq float64
		var coords int
		for j := range sums {
			exact[j] = make([]float64, dim)
			if counts[j] > 0 {
				for t := range sums[j] {
					exact[j][t] = sums[j][t] / float64(counts[j])
				}
			} else {
				// Empty exact cluster: compare against the kept centroid.
				copy(exact[j], rec.PerturbedCentroids[j])
			}
			for t := range exact[j] {
				d := rec.PerturbedCentroids[j][t] - exact[j][t]
				sq += d * d
				coords++
			}
		}
		ti.ExactCentroids = exact
		ti.ExactCounts = counts
		if coords > 0 {
			ti.NoiseRMSE = math.Sqrt(sq / float64(coords))
		}
		tr.Iterations = append(tr.Iterations, ti)
		if i == len(observer.history)-1 && observer.phase == phaseDone && rec.Iteration+1 < p.Iterations {
			tr.ConvergedAtIteration = rec.Iteration
		}
	}

	// Disclosure-distortion indicator: the perturbed relative counts of
	// the last iteration should sum to ~1 (each is N_j/N plus scaled
	// noise). Note the deviation mixes gossip error with realized count
	// noise — it is an observable sanity bound, not a pure gossip error
	// (E10 isolates the latter with a noise-free run).
	last := tr.Iterations[len(tr.Iterations)-1]
	var countSum float64
	for _, c := range last.PerturbedCounts {
		countSum += c
	}
	accountant.RecordGossipError(math.Abs(countSum - 1))

	// Final clustering quality over the cleartext data (harness-side).
	tr.FinalCentroids = deepCopyMatrix(last.PerturbedCentroids)
	tr.Assignments = make([]int, n)
	var inertia float64
	for i, s := range data {
		best, bestSq := 0, math.Inf(1)
		for j, c := range tr.FinalCentroids {
			var acc float64
			for t := range s {
				d := s[t] - c[t]
				acc += d * d
			}
			if acc < bestSq {
				best, bestSq = j, acc
			}
		}
		tr.Assignments[i] = best
		inertia += bestSq
	}
	tr.Inertia = inertia
	tr.Privacy = accountant.Report()
	tr.Ops = suite.Counts()
	for _, pt := range participants {
		tr.DecryptFailures += pt.decryptFail
		tr.StaleDrops += pt.staleDrops
		tr.Ops.PartialCacheHits += pt.servedHits
		tr.DecryptRequests += pt.decryptReqs
		tr.DecryptBytes += pt.decryptReqBytes + pt.decryptRespBytes
		if pt.phase == phaseDone {
			tr.Completed++
		}
	}
	return tr, nil
}
