package core

import (
	"math/big"
	"slices"

	"chiaroscuro/internal/gossip"
	"chiaroscuro/internal/vecpool"
)

// scratch is the working storage of the participants one shard
// activates: everything an activation uses and drops before it returns,
// and the decrypt responses, which last one cycle more. The cycle driver
// keeps one block per p2p shard for the life of its network (a
// RunSession's windows reuse them), and a Node keeps one. The
// activations of a shard run one after another, so no block is ever
// used by two goroutines — which lets a block bind itself to the run
// its shard activates (begin) — and its capacity follows what its shard
// moves rather than any one participant's in-degree record. Snapshots
// never see a block: it holds no trajectory state.
type scratch struct {
	// run is the run the block is laid out for; nil until the block's
	// first activation, and again once released.
	run *runShared

	// coords, groups and decoded are the fixed-point working storage of
	// one encode (stepAssign) or decode (finishIteration): sideLen
	// coordinate integers and sideCiphers group integers in one arena,
	// and sideLen decoded floats. vals and noises are an assignment's
	// cleartext contribution and noise shares, meanRow one cluster's
	// decoded mean on its way through the smoothing.
	coords, groups        []*big.Int
	decoded, vals, noises []float64
	meanRow               []float64

	// batch and col are the batched gossip exchange's storage: the
	// same-iteration messages drained from one inbox, and the push-sum
	// column AbsorbAll folds them through. Both are emptied before the
	// activation returns.
	batch []*gossip.Message[Cipher]
	col   []Cipher

	// responses are the two cycle-parity sets of decrypt responses the
	// shard's participants serve into (used when runShared.parityEmits).
	responses [2]responseBuffers
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

// newScratch builds a block bound to r (see bind).
func (r *runShared) newScratch() *scratch {
	sc := new(scratch)
	sc.bind(r)
	return sc
}

// bind lays the block out for run r: every response is released and
// its set emptied, the gossip batch and column keep their capacity, and
// the fixed-width storage is laid out for r's shape. The batch and column
// are sized at once for population−1 messages, the most a fault-free
// inbox can hold (every peer emits at most one gossip a cycle, and it is
// delivered the next): a steady-state cycle then never grows them, and
// under a fault plan they grow past it on demand.
func (sc *scratch) bind(r *runShared) {
	// The only error is a non-positive size, and both are positive. The
	// integers are wide enough for an opened plaintext shifted by the
	// whole halving budget.
	arena, _ := vecpool.NewResidueArena(r.sideLen+r.sideCiphers, r.plainMod.BitLen()+int(r.preScale))
	ints := make([]*big.Int, arena.Len())
	for i := range ints {
		ints[i] = arena.Int(i)
	}
	floats := make([]float64, 3*r.sideLen+r.dim)
	sc.coords, sc.groups = ints[:r.sideLen], ints[r.sideLen:]
	sc.decoded, sc.vals, sc.noises = floats[:r.sideLen], floats[r.sideLen:2*r.sideLen], floats[2*r.sideLen:3*r.sideLen]
	sc.meanRow = floats[3*r.sideLen:]

	bound := r.population - 1
	sc.batch = slices.Grow(sc.batch[:0], bound)
	sc.col = slices.Grow(sc.col[:0], bound)
	sc.release()
	sc.run = r
}

// release drops every reference the block holds — each response's
// partials, the run — keeping its capacity: what a cycle driver bound
// to a new run does to its blocks, which then bind to the run at their
// first activation. The batch and column are empty between activations.
func (sc *scratch) release() {
	for i := range sc.responses {
		sc.responses[i].release(0)
	}
	sc.run = nil
}

// begin opens an activation of a participant of run r at cycle: the
// block binds to r if it is not bound to it yet, and the response set
// of the cycle's parity, sent two cycles ago and consumed since, is
// released for the cycle's serves.
func (sc *scratch) begin(r *runShared, cycle int) {
	if sc.run != r {
		sc.bind(r)
	}
	if rb := &sc.responses[cycle&1]; rb.cycle != cycle {
		rb.release(cycle)
	}
}

// release drops the partials of every response of the set and empties
// it for cycle, keeping the buffers.
func (rb *responseBuffers) release(cycle int) {
	for _, resp := range rb.bufs[:rb.used] {
		clear(resp.Partials)
		resp.Iter = 0
	}
	rb.cycle, rb.used = cycle, 0
}

// response returns the storage of one response of n partials sent at
// the cycle the activation began at (see begin). Under parityEmits it
// is the next buffer of the cycle's parity set, whose previous occupant
// was sent two cycles ago and consumed by the end of the last one;
// otherwise a response may be held and read later, and it gets fresh
// storage.
func (sc *scratch) response(r *runShared, cycle, n int) *decryptResponse {
	if !r.parityEmits {
		return &decryptResponse{Partials: make([]Partial, n)}
	}
	rb := &sc.responses[cycle&1]
	if rb.used == len(rb.bufs) {
		// One chunk of buffers per growth, doubling the set; the first
		// holds the responses to one quorum's asks.
		k, grow := r.sideCiphers, max(r.suite.Threshold(), len(rb.bufs))
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
