package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sync"

	"chiaroscuro/internal/compactrng"
	"chiaroscuro/internal/dp"
	"chiaroscuro/internal/fixedpoint"
	"chiaroscuro/internal/gossip"
	"chiaroscuro/internal/p2p"
	"chiaroscuro/internal/simnet"
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

// decryptRequest asks a peer for partial decryptions of the requester's
// perturbed-mean ciphertexts.
type decryptRequest struct {
	Iter    int
	Ciphers []Cipher
}

// decryptResponse carries one partial decryption per requested cipher,
// all under the responder's key-share index.
type decryptResponse struct {
	Iter     int
	Partials []Partial
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

	// Mutable protocol state.
	phase      phase
	iter       int // current iteration, 0-based
	roundsDone int // gossip rounds completed this iteration
	diptych    Diptych
	assignment int
	waitCycles int
	pendingCT  []Cipher // perturbed ciphertexts awaiting decryption
	// partials are the collected per-responder partial sets, ascending
	// by share index: the order the combine path takes them in.
	partials [][]Partial
	// asks is the request window: every peer asked this window,
	// ascending by id, with the remaining patience of its in-flight ask
	// in decrypt activations. An ask leaves the flight when its response
	// arrives (ttl 0: the peer stays asked, it is not asked again) or
	// when its TTL runs out (the peer leaves the list and may be asked
	// again).
	asks        []ask
	history     []IterationResult
	staleDrops  int
	decryptFail int

	// Decrypt-phase traffic accounting (summed into the trace).
	decryptReqs      int
	decryptReqBytes  int64
	decryptRespBytes int64

	// The decrypt-service memo: the last (iteration, cipher-set) this
	// participant computed partials for, keyed by the identity of the
	// request's cipher slice. servedCiphers holds a strong reference to
	// the cached request's slice so its address cannot be recycled while
	// the entry lives — without it, a freed requester slice could alias a
	// new same-iteration request and serve it stale partials.
	servedIter    int
	servedCiphers []Cipher
	servedParts   []Partial
	servedHits    int64

	// byz, when non-nil, makes this participant a byzantine sender of
	// the planned kind (internal/simnet); replayPayload caches the first
	// gossip emission of a FaultReplay sender.
	byz           *simnet.NodeFault
	replayPayload *gossipPayload

	// absorbBatch is the reusable scratch for the batched gossip
	// exchange: same-iteration messages drained from one inbox are
	// absorbed in a single AbsorbAll pass.
	absorbBatch []*gossip.Message[Cipher]

	// gossipScratch/respScratch are the inbox classification buffers,
	// reused across activations so a steady-state cycle sorts its inbox
	// without allocating (references are cleared before the activation
	// returns, so recycled capacity never pins dead payloads).
	gossipScratch []*gossipPayload
	respScratch   []*decryptResponse

	// vals/noises are the per-iteration cleartext contribution and noise
	// buffers; contrib is the owned cipher vector each iteration's
	// push-sum state is rebuilt over; emitMsgs/emitPayloads are the two
	// cycle-parity emission buffers (used when runShared.parityEmits).
	vals, noises []float64
	contrib      []Cipher
	emitMsgs     [2]gossip.Message[Cipher]
	emitPayloads [2]gossipPayload

	// The decrypt phase's storage, reused across iterations.
	//
	// opening and req are the iteration's frozen ciphertexts and the
	// request that carries them, built once per decrypt window (see
	// freezeOpening); under runShared.parityEmits req is ownReq. kept is
	// the slab the partial sets collected in pt.partials are copied into
	// (nKept of them in use this window). responses are the two
	// cycle-parity response buffers serveDecrypt answers into (used when
	// runShared.parityEmits).
	opening   []Cipher
	req       *decryptRequest
	ownReq    decryptRequest
	kept      [][]Partial
	nKept     int
	responses [2]responseBuffers

	// meanRow holds one cluster's decoded mean on its way through the
	// smoothing.
	meanRow []float64
}

// ask is one entry of the decrypt request window (participant.asks).
type ask struct {
	peer p2p.NodeID
	ttl  int // 0 once the peer's response has arrived
}

// responseBuffers is one cycle parity's decrypt responses: used of bufs
// have been sent at cycle. Under parityEmits a response sent at cycle c
// is consumed by the end of c+1, so the buffers of c's parity are free
// again at c+2.
type responseBuffers struct {
	cycle int
	used  int
	bufs  []*decryptResponse
}

// runShared is configuration and services shared by all participants of
// one run (read-only after construction, except the thread-safe suite),
// bound over an opened population (population.bind).
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
	// senders: incoming gossip messages are then validated cipher by
	// cipher before absorption (the wire-hardening path).
	validate bool
	// parityEmits stores every emission in the sender's two cycle-parity
	// buffers instead of fresh storage (see population.bind and emit).
	parityEmits bool
	// scratch pools the codecScratch blocks the encode and decode ends of
	// an activation work in.
	scratch sync.Pool
	// batchHint, when positive, pre-sizes every participant's inbox
	// classification and absorb-batch scratch (and the push-sum batch
	// column) for that many messages, so no in-degree spike can ever
	// grow a buffer. Zero (all ordinary runs) lets the scratch converge
	// to its working capacity instead; only the allocation-measurement
	// harnesses pay the O(population·hint) to make "zero allocations"
	// provable rather than amortized.
	batchHint int
}

// codecScratch is the fixed-point working storage of one activation's
// encode (stepAssign) or decode (finishIteration): sideLen coordinate
// integers, sideCiphers group integers and sideLen decoded floats. It
// holds nothing across activations — it is taken from runShared.scratch
// and returned before the step ends — so per-participant memory stays
// flat in the population and snapshots never see it.
type codecScratch struct {
	coords  []*big.Int
	groups  []*big.Int
	decoded []float64
}

// newCodecScratch builds a block whose integers live in one arena wide
// enough for an opened plaintext shifted by the whole halving budget, so
// a block the pool mints after a collection costs a handful of
// allocations, not two per integer.
func (r *runShared) newCodecScratch() *codecScratch {
	// The only error is a non-positive size, and both are positive.
	arena, _ := vecpool.NewResidueArena(r.sideLen+r.sideCiphers, r.plainMod.BitLen()+int(r.preScale))
	ints := make([]*big.Int, arena.Len())
	for i := range ints {
		ints[i] = arena.Int(i)
	}
	return &codecScratch{coords: ints[:r.sideLen], groups: ints[r.sideLen:], decoded: make([]float64, r.sideLen)}
}

// NextCycle implements p2p.Protocol — the entry point Peersim (here
// internal/p2p) calls once per cycle, identical for all participants.
func (pt *participant) NextCycle(ctx *p2p.Context) {
	pt.step(ctx)
}

// step runs one activation against any execution environment.
func (pt *participant) step(ctx Env) {
	// Serve and sort the inbox first: decryption service is stateless
	// and always on; gossip drives the state machine. The classification
	// buffers are participant-owned scratch, valid for this activation
	// only.
	gossips := pt.gossipScratch[:0]
	responses := pt.respScratch[:0]
	for _, m := range ctx.Inbox() {
		switch pl := m.Payload.(type) {
		case *gossipPayload:
			gossips = append(gossips, pl)
		case *decryptRequest:
			pt.serveDecrypt(ctx, m.From, pl)
		case *decryptResponse:
			responses = append(responses, pl)
		}
	}
	pt.handleGossips(ctx, gossips)
	switch pt.phase {
	case phaseAssign:
		pt.stepAssign(ctx)
	case phaseGossip:
		pt.stepGossip(ctx)
	case phaseDecrypt:
		pt.stepDecrypt(ctx, responses)
	case phaseDone:
	}
	// Retain the grown capacity, release the payload references.
	for i := range gossips {
		gossips[i] = nil
	}
	for i := range responses {
		responses[i] = nil
	}
	pt.gossipScratch = gossips[:0]
	pt.respScratch = responses[:0]
}

// Reset implements p2p.Resetter: a node rejoining after a permanent
// failure starts from scratch and will late-sync on the next gossip
// message it receives. A participant that had already terminated stays
// terminated — its result is final and must not be recomputed (and
// re-spending the privacy budget on a re-disclosure would be unsound).
func (pt *participant) Reset() {
	if pt.phase == phaseDone {
		return
	}
	pt.phase = phaseAssign
	pt.roundsDone = 0
	pt.diptych.Means = nil
	pt.clearWindow()
	pt.waitCycles = 0
	pt.servedCiphers = nil
	// The iteration may be redone with a different opening: it must not
	// reuse the address responders memoized the old one's partials by.
	pt.opening = nil
}

// --- Step 1: assignment (local) -------------------------------------------

func (pt *participant) stepAssign(ctx Env) {
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
	// The cleartext buffers are reusable scratch: fill() writes every
	// index (all k·per coordinates plus the optional inertia aggregate),
	// so stale values can never leak between iterations.
	if pt.vals == nil {
		pt.vals = make([]float64, r.sideLen)
		pt.noises = make([]float64, r.sideLen)
	}
	vals, noises := pt.vals, pt.noises
	scale := pt.noiseScale()
	nShares := ctx.AliveCount()
	if nShares < 2 {
		nShares = 2
	}
	fill := func(idx int, x float64) {
		vals[idx] = x
		noise := dp.NoiseShare(pt.rng, nShares, scale)
		if pt.byz != nil && pt.byz.Kind == simnet.FaultSkewNoise {
			// Byzantine noise skew: the share is scaled before the clamp,
			// so it stays wire-plausible (honest receivers cannot tell) —
			// factor 0 freerides on everyone else's noise, large factors
			// poison the disclosed aggregate.
			noise *= pt.byz.Factor
		}
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
	s := r.scratch.Get().(*codecScratch)
	values, err := pt.encryptSide(s, vals, noises)
	r.scratch.Put(s)
	if err != nil {
		// Headroom was validated up front; an error here is a
		// programming error worth failing loudly in simulation.
		panic(err)
	}
	st, err := r.newMeans(values, 1)
	if err != nil {
		panic(err)
	}
	pt.diptych.Means = st
	pt.diptych.Iteration = pt.iter
	pt.roundsDone = 0
	pt.phase = phaseGossip
}

// newMeans builds a push-sum state of weight w (and halving exponent 0)
// over cipher values it takes ownership of — a participant's fresh
// contribution (encryptSide wrote it into the participant's own
// vector) or a restored snapshot's freshly decoded vector.
func (r *runShared) newMeans(values []Cipher, w float64) (*gossip.State[Cipher], error) {
	st, err := gossip.NewState[Cipher](r.ring, values, w)
	if err != nil {
		return nil, err
	}
	if r.batchHint > 0 {
		st.ReserveBatch(r.batchHint)
	}
	return st, nil
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
func (pt *participant) encryptSide(s *codecScratch, vals, noises []float64) ([]Cipher, error) {
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
		if pt.byz != nil {
			// Byzantine senders only exist under a fault plan, whose
			// emissions get fresh storage: a replayed payload may be
			// retained indefinitely.
			payload = pt.byzantinePayload(payload)
		}
		// Byte accounting from the actual ciphertext count of the
		// emitted message — not one recomputed from sideLen — so packed
		// and inertia-tracking runs report true wire bytes.
		bytes := len(payload.Msg.V)*r.suite.CipherBytes() + r.centroidBytes + 16
		_ = ctx.Send(peer, payload, bytes)
	}
	pt.roundsDone++
	if pt.roundsDone >= r.params.GossipRounds {
		pt.openWindow()
	}
}

// openWindow enters the decrypt phase with an empty window. It clears
// the window itself rather than trusting the previous one to have been
// closed: a late synchronization leaves a decrypt phase without
// finishIteration.
func (pt *participant) openWindow() {
	pt.phase = phaseDecrypt
	pt.waitCycles = 0
	pt.clearWindow()
}

// clearWindow empties the decrypt window in place — the frozen opening,
// the request window, the collected partial sets and the slab they were
// copied into — keeping its storage for the next one.
func (pt *participant) clearWindow() {
	pt.pendingCT = nil
	pt.partials = pt.partials[:0]
	pt.asks = pt.asks[:0]
	for _, set := range pt.kept[:pt.nKept] {
		clear(set) // release the partial values
	}
	pt.nKept = 0
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

// byzantinePayload corrupts an outgoing gossip payload according to the
// participant's planned byzantine behaviour. The honest Emit already
// happened (the sender's own share halves either way), so a byzantine
// sender injects corruption into the network without gaining a
// privileged view of anyone else's state.
func (pt *participant) byzantinePayload(honest *gossipPayload) *gossipPayload {
	r := pt.run
	switch pt.byz.Kind {
	case simnet.FaultGarble:
		// Structurally valid ciphertexts of random residues under the
		// true weight: passes every wire check, poisons the aggregate —
		// receivers survive via the decode plausibility bound.
		fake := make([]Cipher, len(honest.Msg.V))
		for i := range fake {
			v := new(big.Int).Rand(pt.rng, r.plainMod)
			ct, err := r.suite.Encrypt(v)
			if err != nil {
				ct = honest.Msg.V[i]
			}
			fake[i] = ct
		}
		return &gossipPayload{
			Iter:      honest.Iter,
			Centroids: honest.Centroids,
			Msg:       &gossip.Message[Cipher]{V: fake, W: honest.Msg.W, H: honest.Msg.H},
		}
	case simnet.FaultMalform:
		// Malformed messages, alternating the failure mode per round:
		// wrong vector lengths (rejected by the dimension check), and
		// right-length vectors of invalid values under a non-finite
		// weight (rejected by the wire validation, weight first).
		if pt.roundsDone%2 == 0 {
			return &gossipPayload{
				Iter:      honest.Iter,
				Centroids: honest.Centroids,
				Msg:       &gossip.Message[Cipher]{V: honest.Msg.V[:len(honest.Msg.V)-1], W: honest.Msg.W, H: honest.Msg.H},
			}
		}
		bad := make([]Cipher, len(honest.Msg.V))
		for i := range bad {
			if i%2 == 1 {
				bad[i] = big.NewInt(0) // out of range for DJ; even slots stay nil
			}
		}
		return &gossipPayload{
			Iter:      honest.Iter,
			Centroids: honest.Centroids,
			Msg:       &gossip.Message[Cipher]{V: bad, W: math.NaN()},
		}
	case simnet.FaultReplay:
		// Capture the first emission, then replay it verbatim forever:
		// same-iteration replays inflate push-sum mass, later ones hit
		// the stale-iteration drop path.
		if pt.replayPayload == nil {
			pt.replayPayload = &gossipPayload{
				Iter:      honest.Iter,
				Centroids: deepCopyMatrix(honest.Centroids),
				Msg:       &gossip.Message[Cipher]{V: append([]Cipher(nil), honest.Msg.V...), W: honest.Msg.W, H: honest.Msg.H},
			}
			return honest
		}
		return pt.replayPayload
	default: // FaultSkewNoise corrupts at assignment time, not here.
		return honest
	}
}

// wireValid is the byzantine-hardening gate on incoming gossip: the
// push-sum weight must be finite, non-negative and population-bounded,
// the halving exponent within the budget, and every cipher must validate
// under the suite. Only runs when the fault plan declares byzantine
// senders (runShared.validate).
func (pt *participant) wireValid(m *gossip.Message[Cipher]) bool {
	if math.IsNaN(m.W) || math.IsInf(m.W, 0) || m.W < 0 || m.W > float64(pt.run.population) {
		return false
	}
	if m.H > pt.run.preScale {
		return false
	}
	for _, c := range m.V {
		if pt.run.suite.ValidateCipher(c) != nil {
			return false
		}
	}
	return true
}

// handleGossips processes one activation's gossip inflow as a batched
// exchange: runs of messages absorbable under the current state are
// validated up front and folded into the push-sum state by a single
// AbsorbAll pass (which the accounted ring turns into allocation-free
// accumulator folds); a late-synchronization message flushes the run
// first, so the observable behaviour — including staleDrops accounting —
// is identical to absorbing the messages one by one in arrival order.
func (pt *participant) handleGossips(ctx Env, gs []*gossipPayload) {
	if len(gs) == 0 || pt.phase == phaseDone {
		return
	}
	r := pt.run
	batch := pt.absorbBatch[:0]
	flush := func() {
		if len(batch) == 0 {
			return
		}
		if err := pt.diptych.Means.AbsorbAll(batch); err != nil {
			// Unreachable: the batch is validated message by message
			// below. Counted defensively rather than panicking.
			pt.staleDrops += len(batch)
		}
		for i := range batch {
			batch[i] = nil // do not pin absorbed messages until next use
		}
		batch = batch[:0]
	}
	for _, g := range gs {
		switch {
		case g.Iter == pt.iter && (pt.phase == phaseGossip || pt.phase == phaseDecrypt):
			if pt.phase == phaseDecrypt && pt.pendingCT != nil {
				// Our estimate is already frozen and under decryption;
				// absorbing now would desynchronize value and weight.
				pt.staleDrops++
				continue
			}
			if g.Msg == nil || len(g.Msg.V) != len(pt.diptych.Means.V) {
				pt.staleDrops++ // what Absorb would have rejected
				continue
			}
			if g.Msg.H > r.preScale {
				// A share halved past the budget no longer decodes to an
				// integer, and merging it could cost up to H squarings
				// per cipher: its mass is lost instead, like any dropped
				// message's.
				pt.staleDrops++
				continue
			}
			if r.validate && !pt.wireValid(g.Msg) {
				pt.staleDrops++ // byzantine wire input: rejected
				continue
			}
			batch = append(batch, g.Msg)
		case g.Iter > pt.iter:
			// Late synchronization: adopt the newer iteration's
			// centroids, redo the local assignment step, then absorb the
			// message. The payload is validated first — a malformed
			// iteration tag or centroid matrix must not be able to desync
			// (or panic) an honest node. Anything batched so far belongs
			// to the abandoned iteration's state and is folded in before
			// it is replaced.
			if g.Iter >= len(r.epsSched) || g.Msg == nil ||
				len(g.Msg.V) != r.sideCiphers || g.Msg.H > r.preScale ||
				!validShape(g.Centroids, r.params.K, r.dim) ||
				(r.validate && !pt.wireValid(g.Msg)) {
				// Malformed sync payloads (wrong-length vectors and
				// over-budget exponents included) must not be able to
				// force the iteration jump — the
				// same-iteration path length-checks before absorbing, so
				// this path does too.
				pt.staleDrops++
				continue
			}
			flush()
			pt.iter = g.Iter
			pt.diptych.Centroids = deepCopyMatrix(g.Centroids)
			pt.phase = phaseAssign
			pt.stepAssign(ctx)
			if err := pt.diptych.Means.Absorb(g.Msg); err != nil {
				pt.staleDrops++
			}
		default:
			pt.staleDrops++ // stale iteration: drop
		}
	}
	flush()
	pt.absorbBatch = batch[:0]
}

// --- Step 2c/2d: opening + collaborative decryption -----------------------

func (pt *participant) stepDecrypt(ctx Env, responses []*decryptResponse) {
	r := pt.run
	if pt.pendingCT == nil {
		pt.freezeOpening()
	}
	for _, resp := range responses {
		if resp.Iter != pt.iter || len(resp.Partials) != len(pt.pendingCT) {
			continue
		}
		if len(resp.Partials) == 0 {
			continue
		}
		// The responder's node id is its share index - 1: its ask (if
		// still in flight) is now settled.
		if i, ok := pt.findAsk(p2p.NodeID(resp.Partials[0].Index - 1)); ok {
			pt.asks[i].ttl = 0
		}
		pt.collect(resp.Partials)
	}
	if len(pt.partials) >= r.suite.Threshold() {
		pt.finishIteration(ctx, false)
		return
	}
	// Step 2d: ask peers for partial decryptions, keeping only `missing`
	// asks in flight.
	missing := r.suite.Threshold() - len(pt.partials)
	bytes := len(pt.pendingCT)*r.suite.CipherBytes() + 8
	pt.topUpAsks(ctx, missing, pt.req, bytes)
	pt.waitCycles++
	if pt.waitCycles > r.params.DecryptWindow {
		// Could not assemble a quorum (heavy churn): degrade by keeping
		// the current centroids and moving on.
		pt.decryptFail++
		pt.finishIteration(ctx, true)
	}
}

// freezeOpening runs step 2c on the frozen push-sum vector: the
// sideCiphers ciphertexts the participant asks its quorum to open, and
// the request that carries them, built once per iteration. Every
// contribution was perturbed at encryption (see encryptSide), so the
// aggregate is perturbed *before* anyone can decrypt it and the opening
// is the vector itself. Each partial decryption serves a whole group,
// and signedAggregates splits the opened plaintexts back into the very
// integers per-coordinate openings would disclose.
//
// The opening is a copy, never the push-sum vector: a sharded responder
// may still be reading a request while its sender's next stepAssign
// rewrites that. Under parityEmits the copy goes into the participant's
// own opening, rewritten each iteration: a request sent at cycle c is
// consumed by the end of c+1, and the next window freezes its opening
// two cycles after this one's last ask at the earliest. A responder's
// memo cannot confuse the two iterations' openings, which share an
// address but not an iteration tag (Reset drops the opening, so a
// redone iteration opens into new storage). Under any other fault plan
// a request may be held and read later, and every iteration gets fresh
// storage. At steady state under parityEmits it allocates nothing.
func (pt *participant) freezeOpening() {
	r := pt.run
	if pt.opening == nil || !r.parityEmits {
		cts, err := r.suite.NewCipherVector(r.sideCiphers)
		if err != nil {
			panic(err) // vector sizing is validated at bind time
		}
		pt.opening = cts
	}
	for g, c := range pt.opening {
		c.Set(pt.diptych.Means.V[g])
	}
	if r.parityEmits {
		pt.req = &pt.ownReq
	} else {
		pt.req = &decryptRequest{}
	}
	pt.req.Iter, pt.req.Ciphers = pt.iter, pt.opening
	pt.pendingCT = pt.opening
}

// collect adds a responder's partial set to the window, in share-index
// order, unless that index already has one (the first set is kept). The
// set is copied into the participant's slab: the response's storage is
// the responder's, and under parityEmits it is overwritten two cycles
// after it was sent, while a window may collect for longer.
func (pt *participant) collect(parts []Partial) {
	i, dup := slices.BinarySearchFunc(pt.partials, parts[0].Index, bySetIndex)
	if dup {
		return
	}
	if pt.nKept == len(pt.kept) {
		// One chunk of sets per growth; the first holds a quorum.
		n, grow := pt.run.sideCiphers, max(pt.run.suite.Threshold(), len(pt.kept))
		slab := make([]Partial, grow*n)
		pt.kept = slices.Grow(pt.kept, grow)
		for j := 0; j < grow; j++ {
			pt.kept = append(pt.kept, slab[j*n:(j+1)*n:(j+1)*n])
		}
	}
	set := append(pt.kept[pt.nKept][:0], parts...)
	pt.kept[pt.nKept] = set
	pt.nKept++
	if pt.partials == nil {
		pt.partials = make([][]Partial, 0, pt.run.suite.Threshold())
	}
	pt.partials = slices.Insert(pt.partials, i, set)
}

// findAsk locates peer in the request window.
func (pt *participant) findAsk(peer p2p.NodeID) (int, bool) {
	return slices.BinarySearchFunc(pt.asks, peer, byAskPeer)
}

// bySetIndex and byAskPeer order the decrypt window's partial sets and
// asks for binary search.
func bySetIndex(set []Partial, idx int) int { return cmp.Compare(set[0].Index, idx) }
func byAskPeer(a ask, peer p2p.NodeID) int  { return cmp.Compare(a.peer, peer) }

// askTTL is the patience of one in-flight decrypt ask, in decrypt
// activations. Fault-free, a request sent at cycle c is answered by the
// response processed at c+2; one spare activation absorbs drop/laggard
// jitter before the window re-provisions the ask elsewhere.
const askTTL = 3

// topUpAsks is the outstanding-request window: it ages out expired
// in-flight asks, then draws fresh un-asked peers — with replacement
// redraws, so already-asked draws don't silently shrink the wave — until
// the window again holds `missing` asks (progressively more as the
// quorum drags) or the candidate pool is exhausted.
func (pt *participant) topUpAsks(ctx Env, missing int, req *decryptRequest, bytes int) {
	inFlight := 0
	asks := pt.asks[:0]
	for _, a := range pt.asks {
		switch a.ttl {
		case 0: // answered
		case 1:
			// Expired unanswered: the peer may have crashed, rejoined, or
			// the messages may have dropped. Release it for re-asking —
			// duplicate responses are idempotent (collect keeps the
			// first) — so a small pool under churn keeps its liveness
			// instead of exhausting permanently.
			continue
		default:
			a.ttl--
			inFlight++
		}
		asks = append(asks, a)
	}
	pt.asks = asks
	// Progressive escalation: each elapsed TTL without a settled quorum
	// widens the window by one, so dead or slow responders cannot
	// serialize the remaining waves, and a window burning toward its
	// deadline grows redundant instead of failing lean.
	target := missing + pt.waitCycles/askTTL
	need := target - inFlight
	if need <= 0 {
		return
	}
	if pt.asks == nil {
		pt.asks = make([]ask, 0, 2*pt.run.suite.Threshold())
	}
	// Redraw budget: generous enough to find `need` fresh peers even when
	// most draws land on already-asked ones (small populations, long
	// waits), finite so an exhausted pool cannot loop forever.
	budget := 16*(need+1) + 8*len(pt.asks)
	for need > 0 && budget > 0 {
		budget--
		peer, ok := ctx.RandomPeer()
		if !ok {
			return
		}
		i, asked := pt.findAsk(peer)
		if asked {
			continue
		}
		pt.asks = slices.Insert(pt.asks, i, ask{peer: peer, ttl: askTTL})
		pt.decryptReqs++
		pt.decryptReqBytes += int64(bytes)
		_ = ctx.Send(peer, req, bytes)
		need--
	}
}

// serveDecrypt is the always-on decryption service: any alive participant
// contributes its partial decryptions on request. The partials of the
// last served (iteration, cipher-set) are memoized, so duplicate
// requests for the same ciphertexts (replays, retransmissions) are
// answered without redoing the per-cipher exponentiations. The memo key
// is the identity of the request's cipher slice — servedCiphers keeps
// that slice alive, so a match guarantees the cached partials belong to
// exactly these ciphertexts. The memo's partials are the participant's
// own copy, and every response is a copy of them in response storage:
// the memo never points at a response buffer, which is recycled. Under
// parityEmits a warmed serve allocates nothing on the accounted backend
// (TestDecryptCycleZeroAlloc).
func (pt *participant) serveDecrypt(ctx Env, from p2p.NodeID, req *decryptRequest) {
	r := pt.run
	share := int(pt.id) + 1
	if share > r.suite.Parties() {
		return
	}
	resp := pt.response(ctx.Cycle(), len(req.Ciphers))
	if len(req.Ciphers) > 0 && pt.servedCiphers != nil &&
		pt.servedIter == req.Iter &&
		len(pt.servedCiphers) == len(req.Ciphers) &&
		&pt.servedCiphers[0] == &req.Ciphers[0] {
		pt.servedHits++
		copy(resp.Partials, pt.servedParts)
	} else {
		for i, c := range req.Ciphers {
			p, err := r.suite.PartialDecrypt(share, c)
			if err != nil {
				return
			}
			resp.Partials[i] = p
		}
		pt.servedIter = req.Iter
		pt.servedCiphers = req.Ciphers
		pt.servedParts = append(pt.servedParts[:0], resp.Partials...)
	}
	resp.Iter = req.Iter
	respBytes := len(resp.Partials)*r.suite.CipherBytes() + 8
	if ctx.Send(from, resp, respBytes) == nil {
		pt.decryptRespBytes += int64(respBytes)
	}
}

// response returns the storage of one response of n partials sent at
// cycle. Under parityEmits it is the next buffer of the cycle's parity,
// whose previous occupant was sent at cycle-2 and consumed by the end of
// cycle-1 (see responseBuffers); otherwise a response may be held and
// read later, and it gets fresh storage.
func (pt *participant) response(cycle, n int) *decryptResponse {
	if !pt.run.parityEmits {
		return &decryptResponse{Partials: make([]Partial, n)}
	}
	rb := &pt.responses[cycle&1]
	if rb.cycle != cycle {
		rb.cycle, rb.used = cycle, 0
	}
	if rb.used == len(rb.bufs) {
		// One chunk of buffers per growth; the first holds as many as a
		// participant serves on average, one per asker of a quorum (or the
		// batch hint's in-degree, see runShared.batchHint).
		k, grow := pt.run.sideCiphers, max(pt.run.suite.Threshold(), len(rb.bufs), pt.run.batchHint)
		resps, parts := make([]decryptResponse, grow), make([]Partial, grow*k)
		rb.bufs = slices.Grow(rb.bufs, grow)
		for i := range resps {
			resps[i].Partials = parts[i*k : (i+1)*k : (i+1)*k]
			rb.bufs = append(rb.bufs, &resps[i])
		}
	}
	resp := rb.bufs[rb.used]
	rb.used++
	resp.Partials = slices.Grow(resp.Partials[:0], n)[:n]
	return resp
}

// finishIteration completes Step 3 (convergence, local): decode the
// perturbed means, apply smoothing, decide and either iterate or stop.
// The next centroids are built in the disclosed IterationResult, which
// becomes the participant's centroids: that record is all it allocates,
// and no centroid matrix is ever overwritten, so a gossip payload may
// hold the one it was sent with for as long as it likes.
func (pt *participant) finishIteration(ctx Env, failed bool) {
	r := pt.run
	k := r.params.K
	per := r.dim + 1
	newCentroids, counts := newRecord(k, r.dim)
	for j, row := range pt.diptych.Centroids {
		copy(newCentroids[j], row)
	}
	inertia := math.NaN()

	if !failed {
		s := r.scratch.Get().(*codecScratch)
		defer r.scratch.Put(s)
		decoded, err := pt.decodeAll(s)
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
				pt.smoothMean(newCentroids[j], decoded[j*per:j*per+r.dim], cnt)
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
	pt.clearWindow()

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

// errHalvingBudget reports a share whose halving exponent overran the
// pre-scale budget T: Dec(c)·2^(T-h) is then not an integer, so there is
// no exact value to disclose and the iteration is recorded as a failed
// decryption.
var errHalvingBudget = errors.New("core: push-sum share halved beyond the pre-scale budget")

// errOpeningWeight reports a share whose push-sum weight exceeds the
// population while the run packs several slots to a plaintext. The slot
// width B is sized for at most all n contributions on one holder,
// |v| ≤ 2^(B−3) when w ≤ n; mass inflated past that by duplicated or
// replayed gossip could carry a slot into its neighbour undetected, so
// the share is recorded as a failed decryption instead of being split.
// A one-slot plaintext has no neighbour: UnpackInto refuses its overrun
// on its own.
var errOpeningWeight = errors.New("core: push-sum weight exceeds the population the opening is sized for")

// decodeAll combines the collected partials for every pending ciphertext
// and decodes the fixed-point plaintexts to floats, already divided by
// the push-sum weight and the pre-scaling factor. It always returns
// sideLen coordinates, in s's storage.
func (pt *participant) decodeAll(s *codecScratch) ([]float64, error) {
	r := pt.run
	st := pt.diptych.Means
	// The partial sets are in ascending share-index order (collect), so
	// the responder-set cache keys and OpCounts profiles are
	// deterministic; the set is resolved once for the whole pending
	// vector, which opens into s's group integers.
	plains := s.groups[:len(pt.pendingCT)]
	if err := r.suite.CombineColumnsInto(plains, pt.partials); err != nil {
		return nil, err
	}
	signed, err := r.signedAggregates(s, plains, st.H, st.W)
	if err != nil {
		return nil, err
	}
	denom := st.W * math.Ldexp(1, int(r.preScale))
	out := s.decoded[:len(signed)]
	for i, v := range signed {
		if out[i], err = pt.decodeSigned(v, denom, i); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// signedAggregates turns the opened plaintexts of a perturbed share with
// halving exponent h and push-sum weight w into the exact signed
// fixed-point aggregates, one per coordinate (sideLen of them), written
// into s's coordinates; plains may be mutated. A share heavier than the
// population is refused first when a plaintext packs several slots (see
// errOpeningWeight). The plaintexts are sign-unwrapped against the
// cached M/2 and split into their balanced digits (a digit out of budget
// fails the decode), and every digit is shifted by what is left of the
// halving budget, T − h: that makes it the integer eager halving of
// 2^T-pre-scaled contributions would have left in the ciphertexts, and
// everything downstream is oblivious to the exponent.
func (r *runShared) signedAggregates(s *codecScratch, plains []*big.Int, h uint, w float64) ([]*big.Int, error) {
	if h > r.preScale {
		return nil, errHalvingBudget
	}
	if w > float64(r.population) && r.layout.Slots() > 1 {
		return nil, errOpeningWeight
	}
	for _, m := range plains {
		if err := fixedpoint.UnwrapSignedInPlace(m, r.plainMod, r.halfMod); err != nil {
			return nil, err
		}
	}
	if err := r.layout.UnpackInto(s.coords, plains); err != nil {
		return nil, err
	}
	for _, f := range s.coords {
		f.Lsh(f, r.preScale-h)
	}
	return s.coords, nil
}

// decodeSigned converts an exact signed aggregate to its float64 mean
// estimate and applies the plausibility bound.
func (pt *participant) decodeSigned(signed *big.Int, denom float64, i int) (float64, error) {
	r := pt.run
	v := r.codec.Decode(signed) / denom
	if math.Abs(v) > r.decodeBound || math.IsNaN(v) {
		return 0, fmt.Errorf("core: decoded coordinate %d implausible (%g) — gossip invariant violated", i, v)
	}
	return v, nil
}

// smoothMean writes the smoothed mean of one cluster, sums/cnt, into
// dst.
func (pt *participant) smoothMean(dst, sums []float64, cnt float64) {
	spec := pt.run.params.Smoothing
	mean := dst
	if spec.Method == SmoothingMovingAverage || spec.Method == SmoothingExponential {
		if pt.meanRow == nil {
			pt.meanRow = make([]float64, len(sums))
		}
		mean = pt.meanRow
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

// deepCopyMatrix copies a centroid matrix into flat-backed row views:
// two allocations regardless of k (see internal/vecpool), down from
// k+1 with per-row copies — it runs once per iteration per participant
// (history entries, centroid adoption), which at large populations made
// it the dominant small-object source after the gossip hot path.
func deepCopyMatrix(m [][]float64) [][]float64 {
	return vecpool.CloneRows(m)
}
