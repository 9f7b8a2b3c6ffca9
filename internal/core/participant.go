package core

import (
	"math"
	"math/big"
	"math/rand"

	"chiaroscuro/internal/compactrng"
	"chiaroscuro/internal/dp"
	"chiaroscuro/internal/fixedpoint"
	"chiaroscuro/internal/gossip"
	"chiaroscuro/internal/p2p"
	"chiaroscuro/internal/timeseries"
	"chiaroscuro/internal/vecpool"
)

// phase is the participant's position inside one iteration of the
// execution sequence.
type phase int

const (
	phaseAssign  phase = iota // Step 1 (local)
	phaseGossip               // Step 2a+2b (distributed)
	phaseDecrypt              // Step 2c+2d (opening + collaborative decryption)
	phaseDone                 // terminated (converged or out of iterations)
)

// gossipPayload is one push-sum exchange. It carries the iteration tag and
// the perturbed centroids of that iteration so that late participants can
// synchronize (Sec. II.B: "the late participants simply synchronize on
// the latest iteration during their gossip exchanges"). The vector
// carries the encrypted sums and counts, each participant's noise shares
// already added to its own contribution, under one push-sum weight.
type gossipPayload struct {
	Iter      int
	Centroids [][]float64
	Msg       *gossip.Message[Cipher]
}

// Diptych is the twofold data structure of Sec. II.B: the cleartext but
// differentially-private centroids on one side, and the encrypted means
// under gossip aggregation on the other.
type Diptych struct {
	// Iteration tags the diptych; all messages carry it.
	Iteration int
	// Centroids is the perturbed, publicly disclosed side.
	Centroids [][]float64
	// Means is the encrypted side: the push-sum state over the cluster
	// sums and counts with the noise shares added, never disclosed.
	Means *gossip.State[Cipher]
}

// IterationResult is what a participant retains about one finished
// iteration (read by the experiment harness).
type IterationResult struct {
	Iteration          int
	Epsilon            float64
	PerturbedCentroids [][]float64
	PerturbedCounts    []float64
	// PerturbedInertia is the disclosed mean squared distance of the
	// series to their closest centroid (only when Params.TrackInertia;
	// the footnote-2 quality-monitoring extension). NaN when disabled.
	PerturbedInertia float64
	Assignment       int // cluster this participant chose at Step 1
	Displacement     float64
	DecryptFailed    bool
	CompletedAtCycle int
}

// Env is the execution environment a participant interacts with during
// one activation. Two implementations ship: the cycle-driven
// simulator's p2p.Context (Peersim semantics, deterministic; Run at any
// Params.Workers) and the networked daemon's epochEnv
// (internal/transport, which encodes every payload onto a supervised
// TCP link and discloses the same trajectory). The benchmark's node
// driver and the snapshot tests bring their own.
type Env interface {
	ID() p2p.NodeID
	Cycle() int
	AliveCount() int
	Inbox() []p2p.Message
	Send(to p2p.NodeID, payload any, bytes int) error
	RandomPeer() (p2p.NodeID, bool)
}

var _ Env = (*p2p.Context)(nil)

// participant is the per-node protocol: Chiaroscuro's "nextCycle"
// implementation.
type participant struct {
	id     p2p.NodeID
	series []float64
	run    *runShared // immutable run-wide configuration and services
	rng    *rand.Rand
	// rngSrc is the splitmix64 source behind rng, retained so Snapshot
	// can capture (and Restore reinstate) the complete RNG state: the
	// draw algorithms the participant uses buffer nothing on top of the
	// source, so one word IS the whole noise-randomness state.
	rngSrc *compactrng.Source
	// noiseFactor scales every noise share the participant draws: 1 for
	// an honest participant (multiplying by 1 is exact, so its shares are
	// unchanged), the plan's factor for a simulated noise-skew sender
	// (see adversary).
	noiseFactor float64

	// Mutable protocol state.
	phase       phase
	iter        int // current iteration, 0-based
	roundsDone  int // gossip rounds completed this iteration
	diptych     Diptych
	assignment  int
	staleDrops  int
	decryptFail int

	// storage is every buffer the participant reuses, kept across the
	// runs it is bound to (see runShared.bindParticipant).
	storage
}

// storage is a participant's reusable buffers: its protocol state and
// its own emissions, laid out once and then rewritten, iteration after
// iteration and — on a session's kept cycle driver — window after
// window. What an activation or a cycle uses and drops is not here but
// in the scratch block of the shard that runs it. Nothing of the
// storage outlives the run, because rebound empties it all for the
// next.
type storage struct {
	// contrib is the owned cipher vector each iteration's push-sum state
	// is rebuilt over; emitMsgs/emitPayloads are the two cycle-parity
	// emission buffers (used when runShared.parityEmits).
	contrib      []Cipher
	emitMsgs     [2]gossip.Message[Cipher]
	emitPayloads [2]gossipPayload
	// means is the push-sum state diptych.Means points at from the
	// participant's assignment step on: re-armed over each iteration's
	// contribution instead of built anew.
	means gossip.State[Cipher]

	// window and service are the participant's sides of the decrypt
	// phase (decrypt.go), their storage reused across iterations.
	window  requester
	service responder

	// history is the participant's disclosed records, one per finished
	// iteration.
	history []IterationResult
}

// rebound empties the storage for a participant of run r: every slice
// is truncated and every reference to a payload, a partial or a
// disclosed record is dropped, while the capacity is kept. A cipher
// vector the run writes at a fixed length of r.sideCiphers ciphertexts
// is kept only when it has that length.
func (s storage) rebound(r *runShared) storage {
	fits := func(v []Cipher) []Cipher {
		if len(v) != r.sideCiphers {
			return nil
		}
		return v
	}
	s.contrib = fits(s.contrib)
	s.means.V = truncate(s.means.V)
	s.means.W, s.means.H = 0, 0
	for i := range s.emitMsgs {
		s.emitMsgs[i] = gossip.Message[Cipher]{V: fits(s.emitMsgs[i].V)}
		s.emitPayloads[i] = gossipPayload{}
	}
	s.window.forget(r)
	s.service.forget(r)
	s.history = truncate(s.history)
	return s
}

// truncate clears s up to its capacity — a buffer truncated in place
// earlier still holds what it held beyond its length — and returns it
// empty, its capacity kept.
func truncate[T any](s []T) []T {
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}

// runShared is configuration and services shared by all participants of
// one run (read-only once its participants step, except the thread-safe
// suite), bound over an opened population (population.bind).
type runShared struct {
	params        Params
	dim           int
	population    int
	series        *vecpool.Matrix // the population's arena; row i is participant i's series
	initial       [][]float64     // the public iteration-1 centroids
	suite         CipherSuite
	ring          gossip.Ring[Cipher]
	codec         *fixedpoint.Codec
	plainMod      *big.Int
	halfMod       *big.Int // plainMod >> 1, cached for sign wrap/unwrap
	preScale      uint
	epsSched      []float64
	noiseBound    float64
	vecLen        int                    // k*(dim+1): cluster sums and counts
	sideLen       int                    // vecLen (+1 when the inertia aggregate is tracked)
	sideCiphers   int                    // ciphertexts gossiped, and opened per iteration: ⌈sideLen/slots⌉
	layout        *fixedpoint.SlotLayout // how the encrypted side packs into its ciphertexts
	decodeBound   float64                // max plausible |decoded| per coordinate
	centroidBytes int
	// validate is set only when the fault plan contains byzantine
	// senders: incoming gossip messages then get checkShare's hostile
	// checks, weight and cipher by cipher, before absorption. An honest
	// run's hot path checks the exponent alone.
	validate bool
	// parityEmits stores every emission in the sender's two cycle-parity
	// buffers instead of fresh storage (see population.bind and emit).
	parityEmits bool
	// blocks are the scratch blocks of the cycle driver running the
	// run, one per p2p shard (Context.Shard); a Node's run has none, its
	// Node keeps its own.
	blocks []scratch
}

// NextCycle implements p2p.Protocol — the entry point Peersim (here
// internal/p2p) calls once per cycle, identical for all participants.
func (pt *participant) NextCycle(ctx *p2p.Context) {
	pt.step(ctx, &pt.run.blocks[ctx.Shard()])
}

// step runs one activation against any execution environment, in the
// scratch block sc of the shard running it.
func (pt *participant) step(ctx Env, sc *scratch) {
	sc.begin(pt.run, ctx.Cycle())
	// Serve first: decryption service is stateless and always on. Then
	// gossip drives the state machine, and the decrypt phase reads the
	// responses; each picks its own payloads out of the inbox.
	inbox := ctx.Inbox()
	for _, m := range inbox {
		if req, ok := m.Payload.(*decryptRequest); ok {
			pt.service.serve(ctx, sc, pt.run, int(pt.id)+1, m.From, req)
		}
	}
	pt.handleGossips(ctx, sc, inbox)
	switch pt.phase {
	case phaseAssign:
		pt.stepAssign(ctx, sc)
	case phaseGossip:
		pt.stepGossip(ctx)
	case phaseDecrypt:
		pt.stepDecrypt(ctx, sc, inbox)
	case phaseDone:
	}
}

// Reset implements p2p.Resetter: a node rejoining after a permanent
// failure starts from scratch and will late-sync on the next gossip
// message it receives. A participant that had already terminated stays
// terminated — its result is final and must not be recomputed (and
// re-spending the privacy budget on a re-disclosure would be unsound).
// Ending the window is enough to empty it: a reset comes at the end of
// an outage, and a fault plan with one turns parityEmits off, so no
// window's request was own (see requester.freeze).
func (pt *participant) Reset() {
	if pt.phase == phaseDone {
		return
	}
	pt.phase = phaseAssign
	pt.roundsDone = 0
	pt.diptych.Means = nil
	pt.window.end()
	pt.service.forget(nil)
}

// --- Step 1: assignment (local) -------------------------------------------

func (pt *participant) stepAssign(ctx Env, sc *scratch) {
	centroids := pt.diptych.Centroids
	best, bestSq := 0, math.Inf(1)
	for j, c := range centroids {
		var acc float64
		for t := range pt.series {
			d := pt.series[t] - c[t]
			acc += d * d
		}
		if acc < bestSq {
			best, bestSq = j, acc
		}
	}
	pt.assignment = best

	// Build the contribution and one noise share per coordinate:
	//   [0 .. vecLen)            sums then count per cluster
	//   [vecLen .. sideLen)      optional inertia aggregate (footnote 2)
	// The cleartext coordinates are assembled first and packed and
	// encrypted after, so the noise-share RNG consumption is the
	// coordinate order, whatever the packing.
	r := pt.run
	k := r.params.K
	per := r.dim + 1
	// The cleartext buffers are the block's: fill() writes every index
	// (all k·per coordinates plus the optional inertia aggregate), so
	// stale values can never leak between activations.
	vals, noises := sc.vals, sc.noises
	scale := pt.noiseScale()
	nShares := ctx.AliveCount()
	if nShares < 2 {
		nShares = 2
	}
	fill := func(idx int, x float64) {
		vals[idx] = x
		noise := dp.NoiseShare(pt.rng, nShares, scale) * pt.noiseFactor
		if noise > r.noiseBound {
			noise = r.noiseBound
		} else if noise < -r.noiseBound {
			noise = -r.noiseBound
		}
		noises[idx] = noise
	}
	for j := 0; j < k; j++ {
		for t := 0; t < per; t++ {
			var x float64
			if j == best {
				if t < r.dim {
					x = pt.series[t]
				} else {
					x = 1 // count coordinate
				}
			}
			fill(j*per+t, x)
		}
	}
	if r.params.TrackInertia {
		fill(r.sideLen-1, bestSq)
	}
	values, err := pt.encryptSide(sc, vals, noises)
	if err != nil {
		// Headroom was validated up front; an error here is a
		// programming error worth failing loudly in simulation.
		panic(err)
	}
	// The kept state (storage.means) is re-armed over the fresh
	// contribution: no payload reads a state (an emission copies its
	// values out), and a late synchronization folds the pending batch in
	// before re-arming.
	if err := pt.means.Reinit(r.ring, values, 1); err != nil {
		panic(err)
	}
	pt.diptych.Means = &pt.means
	pt.diptych.Iteration = pt.iter
	pt.roundsDone = 0
	pt.phase = phaseGossip
}

// noiseScale returns the Laplace scale b_i = sensitivity / ε_i for the
// current iteration.
func (pt *participant) noiseScale() float64 {
	r := pt.run
	return r.params.sensitivity(r.dim) / r.epsSched[pt.iter]
}

// encryptSide encrypts the perturbed contribution into the participant's
// own cipher vector: each value and its noise share fixed-point-encoded
// on their own and added as integers in s's coordinates, packed into s's
// groups by Horner's rule, sign-wrapped against the cached M/2 (a packed
// integer is a signed value like any other) and encrypted group by
// group. Step 2c's noise addition is done here, in the clear and on the
// participant's own share: push-sum is linear, so the gossiped sum of
// perturbed contributions is the sum of the gossiped contributions and
// the gossiped noise, integer for integer, and the layout already sizes
// one contribution for value plus clamped noise. The 2^T pre-scale is
// not applied: it is the T − 0 the fresh share's halving exponent still
// owes (signedAggregates shifts by whatever is left of it). The previous
// iteration's state owned these ciphers, but it is dropped in the same
// activation, and every emission carries copies, so overwriting is safe.
func (pt *participant) encryptSide(s *scratch, vals, noises []float64) ([]Cipher, error) {
	r := pt.run
	if pt.contrib == nil {
		v, err := r.suite.NewCipherVector(r.sideCiphers)
		if err != nil {
			return nil, err
		}
		pt.contrib = v
	}
	// The first group integer is free until PackInto writes it: it holds
	// each noise share's encoding on its way into the coordinate.
	noise := s.groups[0]
	coords := s.coords[:len(vals)]
	for i, c := range coords {
		if _, err := r.codec.EncodeInto(c, vals[i]); err != nil {
			return nil, err
		}
		if _, err := r.codec.EncodeInto(noise, noises[i]); err != nil {
			return nil, err
		}
		c.Add(c, noise)
	}
	if err := r.layout.PackInto(s.groups, coords); err != nil {
		return nil, err
	}
	for g, m := range s.groups {
		if err := fixedpoint.WrapSignedInPlace(m, r.plainMod, r.halfMod); err != nil {
			return nil, err
		}
		if err := r.suite.EncryptInto(pt.contrib[g], m); err != nil {
			return nil, err
		}
	}
	return pt.contrib, nil
}

// --- Step 2a/2b: gossip (distributed) --------------------------------------

func (pt *participant) stepGossip(ctx Env) {
	r := pt.run
	peer, ok := ctx.RandomPeer()
	// A share that has used up the halving budget is held back whole: one
	// more halving and it would decode to no integer (errHalvingBudget),
	// here and at everyone it reaches. Not emitting conserves push-sum
	// mass like a failed send does, the round still counts, and the
	// participant keeps absorbing. Only a participant that synchronized
	// late onto peers three or more rounds ahead of it gets here (the
	// budget is GossipRounds+2); the peer draw above stays unconditional
	// so the sampling stream does not depend on it.
	if ok && pt.diptych.Means.H < r.preScale {
		payload := pt.emit(ctx)
		_ = ctx.Send(peer, payload, r.gossipBytes(payload))
	}
	pt.roundsDone++
	if pt.roundsDone >= r.params.GossipRounds {
		pt.phase = phaseDecrypt
		pt.window.open()
	}
}

// gossipBytes is the byte count a gossip payload is accounted at: from
// the actual ciphertext count of its message — not one recomputed from
// sideLen — so packed and inertia-tracking runs, and a payload a
// wrapper rewrote, report true wire bytes.
func (r *runShared) gossipBytes(pl *gossipPayload) int {
	return len(pl.Msg.V)*r.suite.CipherBytes() + r.centroidBytes + 16
}

// emit halves the participant's share and returns the outgoing payload:
// the state's values copied into the message's own storage, then
// refreshed — the halving was the exponent's; what the ciphertexts cost
// is making the copy that leaves unlinkable to the one that stays (and
// to the copy sent last round, when nothing was absorbed in between).
// Under parityEmits the message is the buffer of this cycle's parity:
// written at cycle c, it was last written at c-2, and its previous
// occupant was consumed by the end of c-1, so the overwrite never races
// a read. Otherwise every emission gets fresh storage.
func (pt *participant) emit(ctx Env) *gossipPayload {
	r := pt.run
	var msg *gossip.Message[Cipher]
	var pl *gossipPayload
	if r.parityEmits {
		idx := ctx.Cycle() & 1
		msg, pl = &pt.emitMsgs[idx], &pt.emitPayloads[idx]
	} else {
		msg, pl = &gossip.Message[Cipher]{}, &gossipPayload{}
	}
	if msg.V == nil {
		v, err := r.suite.NewCipherVector(len(pt.diptych.Means.V))
		if err != nil {
			panic(err) // vector sizing is validated at bind time
		}
		msg.V = v
	}
	pt.diptych.Means.EmitInto(msg)
	for _, c := range msg.V {
		if err := r.suite.RefreshInPlace(c); err != nil {
			panic(err) // programmer error: mixed suites
		}
	}
	pl.Iter = pt.iter
	pl.Centroids = pt.diptych.Centroids
	pl.Msg = msg
	return pl
}

// handleGossips processes one activation's gossip inflow as a batched
// exchange: every message is checked once on arrival (runShared.checkShare)
// and, when absorbable under the current state, folded into the push-sum
// state with the rest of its run by a single AbsorbAll pass (which the
// accounted ring turns into allocation-free accumulator folds); a
// late-synchronization message flushes the run first, so the observable
// behaviour — including staleDrops accounting — is identical to absorbing
// the messages one by one in arrival order. The batch and its column are
// sc's, emptied before the call returns.
func (pt *participant) handleGossips(ctx Env, sc *scratch, inbox []p2p.Message) {
	if pt.phase == phaseDone {
		return
	}
	r := pt.run
	batch := sc.batch[:0]
	flush := func() {
		if len(batch) == 0 {
			return
		}
		var err error
		if sc.col, err = pt.diptych.Means.AbsorbAll(batch, sc.col); err != nil {
			// Unreachable: the batch is validated message by message
			// below. Counted defensively rather than panicking.
			pt.staleDrops += len(batch)
		}
		clear(batch) // do not pin absorbed messages until next use
		batch = batch[:0]
	}
	for _, m := range inbox {
		g, ok := m.Payload.(*gossipPayload)
		if !ok {
			continue
		}
		// A message of the wrong length, halved past the budget or (under
		// a byzantine plan) hostile is rejected whatever its iteration: it
		// could neither be absorbed nor force a late synchronization, and
		// its mass is lost like any dropped message's.
		if g.Msg == nil || len(g.Msg.V) != r.sideCiphers ||
			r.checkShare(g.Msg.W, g.Msg.H, g.Msg.V, r.validate) != nil {
			pt.staleDrops++
			continue
		}
		switch {
		case g.Iter == pt.iter && (pt.phase == phaseGossip || pt.phase == phaseDecrypt):
			if pt.phase == phaseDecrypt && pt.window.req != nil {
				// Our estimate is already frozen and under decryption;
				// absorbing now would desynchronize value and weight.
				pt.staleDrops++
				continue
			}
			batch = append(batch, g.Msg)
		case g.Iter > pt.iter:
			// Late synchronization: adopt the newer iteration's
			// centroids, leave any decrypt window, redo the local
			// assignment step, then absorb the message. A malformed
			// iteration tag or centroid matrix must not be able to desync
			// (or panic) an honest node. Anything batched so far belongs
			// to the abandoned iteration's state and is folded in before
			// it is replaced.
			if g.Iter >= len(r.epsSched) || !validShape(g.Centroids, r.params.K, r.dim) {
				pt.staleDrops++
				continue
			}
			flush()
			pt.iter = g.Iter
			pt.diptych.Centroids = vecpool.CloneRows(g.Centroids)
			pt.window.end()
			pt.phase = phaseAssign
			pt.stepAssign(ctx, sc)
			if err := pt.diptych.Means.Absorb(g.Msg); err != nil {
				pt.staleDrops++
			}
		default:
			pt.staleDrops++ // stale iteration: drop
		}
	}
	flush()
	sc.batch = batch
}

// --- Step 2c/2d: opening + collaborative decryption -----------------------

func (pt *participant) stepDecrypt(ctx Env, sc *scratch, inbox []p2p.Message) {
	quorum, expired := pt.window.step(ctx, pt.run, pt.iter, pt.diptych.Means.V, inbox)
	if expired {
		// Could not assemble a quorum (heavy churn): degrade by keeping
		// the current centroids and moving on.
		pt.decryptFail++
	}
	if quorum || expired {
		pt.finishIteration(ctx, sc, expired)
	}
}

// finishIteration completes Step 3 (convergence, local): decode the
// perturbed means, apply smoothing, decide and either iterate or stop.
// The next centroids are built in the disclosed IterationResult, which
// becomes the participant's centroids: that record is all it allocates,
// and no centroid matrix is ever overwritten, so a gossip payload may
// hold the one it was sent with for as long as it likes.
func (pt *participant) finishIteration(ctx Env, sc *scratch, failed bool) {
	r := pt.run
	k := r.params.K
	per := r.dim + 1
	newCentroids, counts := newRecord(k, r.dim)
	for j, row := range pt.diptych.Centroids {
		copy(newCentroids[j], row)
	}
	inertia := math.NaN()

	if !failed {
		decoded, err := pt.window.decodeAll(r, sc, pt.diptych.Means)
		if err != nil {
			failed = true
			pt.decryptFail++
		} else {
			if r.params.TrackInertia {
				inertia = decoded[r.sideLen-1]
				if inertia < 0 {
					inertia = 0 // noise can push the estimate below zero
				}
			}
			// A cluster whose perturbed relative count is too small gets
			// its previous centroid kept (kmeans' default empty policy):
			// dividing by a tiny count turns the Laplace noise on the
			// sums into an arbitrarily large distortion of the "mean".
			// The guard is noise-aware: the std of the noise on a
			// relative sum coordinate is √2·b/N, so requiring
			// count ≥ √2·b/(N·tol) caps the expected per-coordinate
			// noise of a disclosed mean at ~tol.
			minCount := 0.5 / float64(r.population)
			const meanNoiseTol = 0.1
			if g := math.Sqrt2 * pt.noiseScale() / (float64(r.population) * meanNoiseTol); g > minCount {
				minCount = g
			}
			// Never freeze genuinely large clusters: under extreme noise
			// a degraded update still beats never moving at all.
			if minCount > 0.25 {
				minCount = 0.25
			}
			for j := 0; j < k; j++ {
				cnt := decoded[j*per+r.dim]
				counts[j] = cnt
				if cnt < minCount {
					continue
				}
				pt.smoothMean(sc, newCentroids[j], decoded[j*per:j*per+r.dim], cnt)
				if r.params.MaxValue > 0 {
					timeseries.Clamp(newCentroids[j], 0, r.params.MaxValue)
				}
			}
		}
	}

	disp := maxDisplacement(pt.diptych.Centroids, newCentroids)
	prevInertia := math.NaN()
	if n := len(pt.history); n > 0 {
		prevInertia = pt.history[n-1].PerturbedInertia
	}
	if pt.history == nil {
		pt.history = make([]IterationResult, 0, r.params.Iterations)
	}
	pt.history = append(pt.history, IterationResult{
		Iteration:          pt.iter,
		Epsilon:            r.epsSched[pt.iter],
		PerturbedCentroids: newCentroids,
		PerturbedCounts:    counts,
		PerturbedInertia:   inertia,
		Assignment:         pt.assignment,
		Displacement:       disp,
		DecryptFailed:      failed,
		CompletedAtCycle:   ctx.Cycle(),
	})

	pt.diptych.Centroids = newCentroids
	pt.window.end()

	converged := r.params.ConvergeThreshold > 0 && disp <= r.params.ConvergeThreshold && !failed
	// Footnote-2 criterion: stop when the tracked quality plateaus.
	if th := r.params.InertiaStopThreshold; th > 0 && !failed &&
		!math.IsNaN(prevInertia) && !math.IsNaN(inertia) && prevInertia > 0 &&
		(prevInertia-inertia)/prevInertia < th {
		converged = true
	}
	if pt.iter+1 >= r.params.Iterations || converged {
		pt.phase = phaseDone
		return
	}
	pt.iter++
	pt.phase = phaseAssign
}

// smoothMean writes the smoothed mean of one cluster, sums/cnt, into
// dst, through sc's mean row when it smooths.
func (pt *participant) smoothMean(sc *scratch, dst, sums []float64, cnt float64) {
	spec := pt.run.params.Smoothing
	mean := dst
	if spec.Method == SmoothingMovingAverage || spec.Method == SmoothingExponential {
		mean = sc.meanRow
	}
	for t, v := range sums {
		mean[t] = v / cnt
	}
	switch spec.Method {
	case SmoothingMovingAverage:
		timeseries.MovingAverageInto(dst, mean, spec.Window)
	case SmoothingExponential:
		if err := timeseries.ExponentialSmoothingInto(dst, mean, spec.Alpha); err != nil {
			panic(err) // Params.validate bounds Alpha to (0, 1]
		}
	}
}

// --- helpers ---------------------------------------------------------------

func maxDisplacement(a, b [][]float64) float64 {
	var max float64
	for j := range a {
		var acc float64
		for t := range a[j] {
			d := a[j][t] - b[j][t]
			acc += d * d
		}
		if d := math.Sqrt(acc); d > max {
			max = d
		}
	}
	return max
}

// validShape checks a received centroid matrix is exactly k×dim — the
// guard that keeps a corrupted late-sync payload from panicking the
// assignment step.
func validShape(m [][]float64, k, dim int) bool {
	if len(m) != k {
		return false
	}
	for _, row := range m {
		if len(row) != dim {
			return false
		}
	}
	return true
}

// newRecord allocates the disclosed side of an IterationResult: k
// centroid rows of dim values and k counts, all in one block of floats.
func newRecord(k, dim int) (centroids [][]float64, counts []float64) {
	flat := make([]float64, k*dim+k)
	centroids = make([][]float64, k)
	for j := range centroids {
		centroids[j] = flat[j*dim : (j+1)*dim : (j+1)*dim]
	}
	return centroids, flat[k*dim:]
}
