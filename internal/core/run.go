package core

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"

	"chiaroscuro/internal/compactrng"
	"chiaroscuro/internal/dp"
	"chiaroscuro/internal/fixedpoint"
	"chiaroscuro/internal/gossip"
	"chiaroscuro/internal/p2p"
	"chiaroscuro/internal/vecpool"
)

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

	Privacy dp.Report
	// GossipRelErr is the deviation of the last iteration's disclosed
	// relative counts from their ideal sum of 1: the distortion under
	// which the ε guarantee holds (the paper's probabilistic variant of
	// ε-DP). It mixes gossip error with realized count noise — an
	// observable sanity bound, not a pure gossip error (E10 isolates the
	// latter with a noise-free run).
	GossipRelErr float64
	NetStats     p2p.Stats
	Ops          OpCounts

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

// population is an opened population: its defaulted, validated
// parameters, its series in one flat arena and the cipher suite every
// run bound over it shares. Whoever opens a population closes it, once:
// Run, RunSequentialHistories, the Measure* probes and NewNode around
// their one run, a RunSession around all of its windows.
type population struct {
	p Params
	// series is the population's data in one flat arena (row i is
	// participant i's series): at large N the contiguous layout replaces
	// N separate slice objects with two slabs, which both the garbage
	// collector and the assignment step's linear scans prefer.
	series *vecpool.Matrix
	suite  CipherSuite
}

// checkPopulation defaults params for the population of data and
// validates both: at least 2 participants, a valid Params, every series
// of the first one's width and inside [0, MaxValue]. It returns the
// defaulted Params.
func checkPopulation(data [][]float64, params Params) (Params, error) {
	n := len(data)
	if n < 2 {
		return params, errors.New("core: need at least 2 participants")
	}
	dim := len(data[0])
	p := params.withDefaults(n)
	if err := p.validate(n, dim); err != nil {
		return p, err
	}
	for i, s := range data {
		if len(s) != dim {
			return p, fmt.Errorf("core: participant %d has dim %d, want %d", i, len(s), dim)
		}
		if t, v, bad := firstOutOfRange(s, p.MaxValue); bad {
			return p, fmt.Errorf("core: participant %d value %v at %d outside [0, %v] — normalize first", i, v, t, p.MaxValue)
		}
	}
	return p, nil
}

// openPopulation is the one constructor of a population: it checks it
// (checkPopulation), flattens its series into one arena (values
// unchanged, so trajectories are too) and builds its suite.
func openPopulation(data [][]float64, params Params) (*population, error) {
	p, err := checkPopulation(data, params)
	if err != nil {
		return nil, err
	}
	series, err := vecpool.FromRows(data)
	if err != nil {
		return nil, err
	}
	suite, err := buildSuite(p, len(data))
	if err != nil {
		return nil, err
	}
	return &population{p: p, series: series, suite: suite}, nil
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

// close releases suite-held resources — today the Damgård–Jurik
// backend's randomizer pool.
func (pop *population) close() { pop.suite.Close() }

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

// bind builds the run-wide state of one run over the population at p:
// pop.p for a one-shot run, or a session window's copy of it with its
// own epsilon, seed and initial centroids.
func (pop *population) bind(p Params) (*runShared, error) {
	n := pop.series.NumRows()
	dim := pop.series.Cols()

	// Privacy schedule. The full schedule is validated against the
	// budget up front (a misbehaving strategy must fail fast) but actual
	// spending is recorded per completed iteration (buildTrace), so early
	// convergence leaves budget unspent.
	epsSched, err := p.Strategy.Allocate(p.Epsilon, p.Iterations)
	if err != nil {
		return nil, err
	}
	dryRun, err := dp.NewBudget(p.Epsilon)
	if err != nil {
		return nil, err
	}
	for i, e := range epsSched {
		if err := dryRun.Spend(i, e); err != nil {
			return nil, fmt.Errorf("core: budget strategy overruns: %w", err)
		}
	}

	// Fixed-point codec and the one packing of the encrypted side: each
	// side travels as ⌈sideLen/slots⌉ ciphertexts, its coordinates the
	// headroom budget's width apart.
	codec, err := fixedpoint.New(p.FracBits)
	if err != nil {
		return nil, err
	}
	preScale := p.preScaleBits()
	coordBound, noiseBound := p.noiseEnvelope(dim, epsSched)
	plainMod := pop.suite.PlainModulus()
	layout, err := slotLayout(plainMod.BitLen()-1, n, coordBound, noiseBound, p.FracBits, preScale)
	if err != nil {
		return nil, err
	}
	sideLen := p.K * (dim + 1)
	if p.TrackInertia {
		sideLen++
	}
	sideCiphers := layout.Groups(sideLen)

	// Decoded per-coordinate magnitudes are relative aggregates: bounded
	// by the largest coordinate bound plus noise, with slack. Anything
	// beyond signals a broken gossip invariant and fails the decode.
	decodeBound := 4 * (coordBound + noiseBound)
	r := &runShared{
		params:        p,
		dim:           dim,
		population:    n,
		series:        pop.series,
		initial:       initialCentroids(p, dim),
		suite:         pop.suite,
		ring:          cipherRing{pop.suite},
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
	r.scratch.New = func() any { return r.newCodecScratch() }
	return r, nil
}

// provision tells the suite what the hosted participants draw from its
// randomizer pool in a fault-free run: per iteration, each encrypts its
// two sides' groups and refreshes them once per gossip emission. A
// fault, churn or early convergence only leaves the pool short (drawn
// on the spot) or over (minted ahead, at most its buffer).
func (r *runShared) provision(hosted int) {
	r.suite.Provision(hosted * r.params.Iterations * (r.params.GossipRounds + 1) * 2 * r.sideCiphers)
}

// newParticipant builds one participant over the shared run state (its
// series is the participant's row of the flat series arena). A node the
// fault plan marks byzantine carries its corruption behaviour.
func (r *runShared) newParticipant(id p2p.NodeID) *participant {
	// A compact splitmix64 source: 16 bytes instead of the standard
	// source's ~5 KB, which at large N made per-participant RNG state
	// the single biggest heap consumer. Retained beside the rand.Rand
	// so Snapshot can read it.
	src := compactrng.New(r.params.Seed ^ (int64(id)+1)*0x5851F42D4C957F2D)
	pt := &participant{
		id:     id,
		series: r.series.Row(int(id)),
		run:    r,
		rng:    rand.New(src),
		rngSrc: src,
		byz:    r.params.Faults.ByzantineOf(int(id)),
		diptych: Diptych{
			Centroids: deepCopyMatrix(r.initial),
		},
	}
	if h := r.batchHint; h > 0 {
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
// network and returns the trace. Everything is deterministic given
// Params.Seed.
//
// Params.Workers picks the scheduler: 0 or 1 activates the participants
// one after another each cycle (Peersim semantics); a larger value
// partitions them into that many contiguous shards whose activations —
// assignment and noise-share encryption, gossip push-sum emission and
// absorption, partial decryption service and quorum assembly — run in
// parallel, in ascending participant order within a shard, and merges
// the per-shard message queues and cost counters through a
// deterministic reduction in stable shard order after a per-cycle
// barrier (see internal/p2p).
//
// # Determinism contract
//
// For any worker count — including counts exceeding the core count or
// the population — Run produces a bit-identical trace: identical
// centroids at every iteration, identical network statistics, identical
// operation counts. This holds because the simulation is
// bulk-synchronous (messages sent in cycle c are delivered in cycle c+1,
// so same-cycle activations are independent), every participant draws
// from RNG streams derived from (Seed, id) alone, and the reduction
// fixes the per-destination delivery order to ascending sender id
// regardless of scheduling. Workers only trades wall-clock for cores.
func Run(data [][]float64, params Params) (*Trace, error) {
	pop, err := openPopulation(data, params)
	if err != nil {
		return nil, err
	}
	defer pop.close()
	r, err := pop.bind(pop.p)
	if err != nil {
		return nil, err
	}
	d, err := newCycleDriver(r, 0)
	if err != nil {
		return nil, err
	}
	return d.run()
}

// initialCentroids returns the run's public iteration-1 centroids for a
// defaulted Params: the caller-supplied matrix, or K data-independent
// uniform random vectors drawn from Seed. Factored out of bind so
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

func buildTrace(data [][]float64, p Params, participants []*participant, cycles int, stats p2p.Stats, suite CipherSuite) (*Trace, error) {
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

	budget, err := dp.NewBudget(p.Epsilon)
	if err != nil {
		return nil, err
	}
	for i, rec := range observer.history {
		if err := budget.Spend(rec.Iteration, rec.Epsilon); err != nil {
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
	// noise).
	last := tr.Iterations[len(tr.Iterations)-1]
	var countSum float64
	for _, c := range last.PerturbedCounts {
		countSum += c
	}
	tr.GossipRelErr = math.Abs(countSum - 1)

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
	tr.Privacy = budget.Report()
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
