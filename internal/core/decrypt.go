package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/big"
	"slices"

	"chiaroscuro/internal/fixedpoint"
	"chiaroscuro/internal/gossip"
	"chiaroscuro/internal/p2p"
	"chiaroscuro/internal/wire"
)

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

// requester is the side of steps 2c–2d of Sec. II.B that asks a quorum
// to open the participant's perturbed means (responder serves the
// others): one decrypt window at a time, opened when the gossip rounds
// end and ended with the iteration or by a late synchronization.
type requester struct {
	// req is the frozen request, nil until the window's first decrypt
	// activation (freeze) and again once it ends; req.Ciphers is the
	// opening. Under parityEmits req is own, reused by every window.
	req *decryptRequest
	own decryptRequest

	// kept is the slab the partial sets collected in partials are copied
	// into, nKept of its sets in use; partials are those sets, ascending
	// by share index: the order the combine takes them in. asks is every
	// peer asked this window, ascending by id, with the patience left to
	// its in-flight ask in decrypt activations: 0 once answered (the peer
	// is not asked again); an ask whose TTL runs out leaves the list.
	kept     [][]Partial
	nKept    int
	partials [][]Partial
	asks     []ask

	// waitCycles counts the window's decrypt activations; reqs and
	// reqBytes the asks sent and their bytes, summed into the trace.
	waitCycles int
	reqs       int
	reqBytes   int64
}

// ask is one entry of the decrypt request window (requester.asks).
type ask struct {
	peer p2p.NodeID
	ttl  int // 0 once the peer's response has arrived
}

// open starts a window, empty since every way out of the last ends it:
// no window outlives its phase, and no checkpoint outside one holds one.
func (q *requester) open() {
	q.waitCycles = 0
}

// end empties the window in place — request, asks, partial sets and
// the slab they were copied into — keeping its storage for the next.
func (q *requester) end() {
	q.req = nil
	q.partials = q.partials[:0]
	q.asks = q.asks[:0]
	for _, set := range q.kept[:q.nKept] {
		clear(set) // release the partial values
	}
	q.nKept = 0
}

// forget empties the window of a participant bound to run next
// (storage.rebound): it keeps nothing of the run before but capacity,
// and its opening's storage only when it is next's width.
func (q *requester) forget(next *runShared) {
	own := q.own.Ciphers
	if len(own) != next.sideCiphers {
		own = nil
	}
	q.end()
	*q = requester{kept: q.kept, partials: truncate(q.partials), asks: q.asks, own: decryptRequest{Ciphers: own}}
}

// step runs one decrypt activation of iteration iter over the push-sum
// vector means: step 2c on the window's first (freeze), then step 2d —
// collect the responses in inbox and, short of a quorum, top up the
// asks. It reports a quorum, or a deadline run out without one.
func (q *requester) step(ctx Env, r *runShared, iter int, means []Cipher, inbox []p2p.Message) (quorum, expired bool) {
	if q.req == nil {
		q.freeze(r, iter, means)
	}
	for _, m := range inbox {
		resp, ok := m.Payload.(*decryptResponse)
		if !ok || resp.Iter != iter || len(resp.Partials) != len(q.req.Ciphers) {
			continue
		}
		// The responder's node id is its share index - 1: its ask (if
		// still in flight) is now settled.
		if i, ok := q.findAsk(p2p.NodeID(resp.Partials[0].Index - 1)); ok {
			q.asks[i].ttl = 0
		}
		q.collect(r, resp.Partials)
	}
	missing := r.suite.Threshold() - len(q.partials)
	if missing <= 0 {
		return true, false
	}
	// Keep only `missing` asks in flight.
	q.topUpAsks(ctx, r, missing, q.req, len(q.req.Ciphers)*r.suite.CipherBytes()+8)
	q.waitCycles++
	return false, q.waitCycles > r.params.DecryptWindow
}

// freeze runs step 2c on the frozen push-sum vector means: the request
// of iteration iter for the sideCiphers ciphertexts the participant asks
// its quorum to open. Every contribution was perturbed at encryption
// (see encryptSide), so the aggregate is perturbed *before* anyone can
// decrypt it and the opening is the vector itself; signedAggregates
// splits the opened groups into the very integers per-coordinate
// openings would disclose.
//
// The opening is a copy, never the push-sum vector: a sharded responder
// may still be reading a request while its sender's next stepAssign
// rewrites that. Under parityEmits the request is own, rewritten each
// iteration: a request sent at cycle c is consumed by the end of c+1,
// and the next window freezes two cycles after this one's last ask at
// the earliest. A responder's memo tells the iterations' openings apart
// by their tag (a reset participant opens into new storage, and a
// rebind zeroes every memo key). Under any other fault plan a request
// may be held and read later, and every window gets fresh storage.
func (q *requester) freeze(r *runShared, iter int, means []Cipher) {
	req := &q.own
	if !r.parityEmits {
		req = &decryptRequest{}
	}
	if req.Ciphers == nil {
		cts, err := r.suite.NewCipherVector(r.sideCiphers)
		if err != nil {
			panic(err) // vector sizing is validated at bind time
		}
		req.Ciphers = cts
	}
	for g, c := range req.Ciphers {
		c.Set(means[g])
	}
	req.Iter = iter
	q.req = req
}

// collect adds a responder's partial set to the window, in share-index
// order, unless that index already has one (the first set is kept). The
// set is copied into the requester's slab: the response's storage is
// the responder's shard's scratch block's, and under parityEmits it is
// overwritten two cycles after it was sent, while a window may collect
// for longer.
func (q *requester) collect(r *runShared, parts []Partial) {
	i, dup := slices.BinarySearchFunc(q.partials, parts[0].Index, bySetIndex)
	if dup {
		return
	}
	if q.nKept == len(q.kept) {
		// One chunk of sets per growth; the first holds a quorum.
		n, grow := r.sideCiphers, max(r.suite.Threshold(), len(q.kept))
		slab := make([]Partial, grow*n)
		q.kept = slices.Grow(q.kept, grow)
		for j := 0; j < grow; j++ {
			q.kept = append(q.kept, slab[j*n:(j+1)*n:(j+1)*n])
		}
	}
	set := append(q.kept[q.nKept][:0], parts...)
	q.kept[q.nKept] = set
	q.nKept++
	if q.partials == nil {
		q.partials = make([][]Partial, 0, r.suite.Threshold())
	}
	q.partials = slices.Insert(q.partials, i, set)
}

// findAsk locates peer in the request window.
func (q *requester) findAsk(peer p2p.NodeID) (int, bool) {
	return slices.BinarySearchFunc(q.asks, peer, byAskPeer)
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
// quorum drags) or the candidate pool is exhausted. Each ask sends req,
// accounted at bytes.
func (q *requester) topUpAsks(ctx Env, r *runShared, missing int, req *decryptRequest, bytes int) {
	inFlight := 0
	asks := q.asks[:0]
	for _, a := range q.asks {
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
	q.asks = asks
	// Progressive escalation: each elapsed TTL without a settled quorum
	// widens the window by one, so dead or slow responders cannot
	// serialize the remaining waves, and a window burning toward its
	// deadline grows redundant instead of failing lean.
	need := missing + q.waitCycles/askTTL - inFlight
	if need <= 0 {
		return
	}
	if q.asks == nil {
		q.asks = make([]ask, 0, 2*r.suite.Threshold())
	}
	// Redraw budget: generous enough to find `need` fresh peers even when
	// most draws land on already-asked ones (small populations, long
	// waits), finite so an exhausted pool cannot loop forever.
	budget := 16*(need+1) + 8*len(q.asks)
	for need > 0 && budget > 0 {
		budget--
		peer, ok := ctx.RandomPeer()
		if !ok {
			return
		}
		i, asked := q.findAsk(peer)
		if asked {
			continue
		}
		q.asks = slices.Insert(q.asks, i, ask{peer: peer, ttl: askTTL})
		q.reqs++
		q.reqBytes += int64(bytes)
		_ = ctx.Send(peer, req, bytes)
		need--
	}
}

// appendWindow appends the window to a snapshot: whether the opening is
// frozen (step 2c runs exactly when it is not) and its ciphertexts, the
// partial sets by share index, the asked peers by id, then the in-flight
// asks (peer, ttl) by id — each kept in that order, so the bytes are
// deterministic.
func (q *requester) appendWindow(buf []byte, s CipherSuite) ([]byte, error) {
	var err error
	if q.req == nil {
		buf = wire.AppendUint32(buf, 0)
	} else if buf, err = appendVectorField(wire.AppendUint32(buf, 1), q.req.Ciphers, s.AppendCipherVector); err != nil {
		return nil, fmt.Errorf("core: snapshot pending ciphertexts: %w", err)
	}
	buf = wire.AppendUint32(buf, uint32(len(q.partials)))
	for _, set := range q.partials {
		buf = wire.AppendUint32(buf, uint32(set[0].Index))
		if buf, err = appendVectorField(buf, set, s.AppendPartialValues); err != nil {
			return nil, fmt.Errorf("core: snapshot partials: %w", err)
		}
	}
	buf = wire.AppendUint32(buf, uint32(len(q.asks)))
	inFlight := 0
	for _, a := range q.asks {
		buf = wire.AppendUint32(buf, uint32(a.peer))
		if a.ttl > 0 {
			inFlight++
		}
	}
	buf = wire.AppendUint32(buf, uint32(inFlight))
	for _, a := range q.asks {
		if a.ttl > 0 {
			buf = wire.AppendUint32(buf, uint32(a.peer))
			buf = wire.AppendUint32(buf, uint32(a.ttl))
		}
	}
	return buf, nil
}

// readWindow restores the window appendWindow wrote into the empty
// requester of a participant of run r at iteration iter, validated
// against r, with the waitCycles its snapshot carries. Honest execution
// freezes an opening only in the decrypt phase (decrypting), and
// collects and asks only once it has: a snapshot holding anything else
// is refused. The restored opening is own (see freeze).
func (q *requester) readWindow(fr *wire.FieldReader, r *runShared, iter, waitCycles int, decrypting bool) error {
	u32 := func(name string) (int, error) { return readU32(fr, name) }
	pending, err := u32("pending flag")
	if err != nil {
		return err
	}
	switch {
	case pending > 1:
		return snapErr("pending flag %d", pending)
	case pending == 1 && !decrypting:
		return snapErr("pending ciphertexts outside decrypt phase")
	case pending == 1:
		cv, err := fr.Bytes()
		if err != nil {
			return snapErr("pending ciphertexts: %v", err)
		}
		cs, err := r.suite.NewCipherVector(r.sideCiphers)
		if err != nil {
			return err
		}
		if err := r.suite.UnmarshalCipherVectorInto(cs, cv); err != nil {
			return snapErr("pending ciphertexts: %v", err)
		}
		q.own = decryptRequest{Iter: iter, Ciphers: cs}
		q.req = &q.own
	}

	nPartials, err := u32("partials count")
	if err != nil {
		return err
	}
	if nPartials > r.suite.Parties() {
		return snapErr("%d partial sets for %d parties", nPartials, r.suite.Parties())
	}
	if q.req == nil && nPartials > 0 {
		return snapErr("partials without pending ciphertexts")
	}
	for i := 0; i < nPartials; i++ {
		idx, err := u32("partial index")
		if err != nil {
			return err
		}
		if idx < 1 || idx > r.suite.Parties() {
			return snapErr("partial index %d outside [1, %d]", idx, r.suite.Parties())
		}
		pv, err := fr.Bytes()
		if err != nil {
			return snapErr("partial values: %v", err)
		}
		ps, err := r.suite.UnmarshalPartialValues(idx, pv)
		if err != nil {
			return snapErr("partial values: %v", err)
		}
		if len(ps) != r.sideCiphers {
			return snapErr("partial set of %d values, want %d", len(ps), r.sideCiphers)
		}
		at, dup := slices.BinarySearchFunc(q.partials, idx, bySetIndex)
		if dup {
			return snapErr("duplicate partial index %d", idx)
		}
		q.partials = slices.Insert(q.partials, at, ps)
	}

	nAsked, err := u32("asked count")
	if err != nil {
		return err
	}
	if nAsked > r.population {
		return snapErr("%d asked peers in population %d", nAsked, r.population)
	}
	if q.req == nil && nAsked > 0 {
		return snapErr("asked peers without pending ciphertexts")
	}
	for i := 0; i < nAsked; i++ {
		id, err := u32("asked id")
		if err != nil {
			return err
		}
		if id >= r.population {
			return snapErr("asked id %d outside population %d", id, r.population)
		}
		if at, dup := q.findAsk(p2p.NodeID(id)); !dup {
			q.asks = slices.Insert(q.asks, at, ask{peer: p2p.NodeID(id)})
		}
	}

	nOut, err := u32("outstanding count")
	if err != nil {
		return err
	}
	if nOut > nAsked {
		return snapErr("%d outstanding asks for %d asked peers", nOut, nAsked)
	}
	for i := 0; i < nOut; i++ {
		id, err := u32("outstanding id")
		if err != nil {
			return err
		}
		ttl, err := u32("outstanding ttl")
		if err != nil {
			return err
		}
		if ttl < 1 || ttl > askTTL {
			return snapErr("outstanding ttl %d outside [1, %d]", ttl, askTTL)
		}
		at, asked := q.findAsk(p2p.NodeID(id))
		if !asked {
			return snapErr("outstanding ask for un-asked peer %d", id)
		}
		if q.asks[at].ttl > 0 {
			return snapErr("duplicate outstanding id %d", id)
		}
		q.asks[at].ttl = ttl
	}
	q.waitCycles = waitCycles
	return nil
}

// responder is a participant's decryption service: any alive
// participant serves its partial decryptions on request. The partials
// (parts) of the last served request are memoized, so replays and
// retransmissions are answered without redoing the exponentiations. The
// memo key is the request's iteration and the identity of its cipher
// slice, which ciphers holds so its address cannot be recycled while the
// entry lives: a freed requester slice could otherwise alias a new
// same-iteration request and be served stale partials.
type responder struct {
	iter    int
	ciphers []Cipher
	parts   []Partial
	// hits counts memo hits, respBytes the bytes of the responses sent:
	// both are summed into the trace.
	hits      int64
	respBytes int64
}

// forget drops the memo of a participant that starts over: a rebind to
// run next keeps only capacity, a reset (next nil) the counters too.
func (s *responder) forget(next *runShared) {
	if next != nil {
		*s = responder{parts: truncate(s.parts)}
	}
	s.ciphers = nil
}

// serve answers req from peer from with key share share's partials, in
// a response of sc's storage: a copy of the memo on a hit, else computed
// and memoized as a copy, since response buffers are recycled. Under
// parityEmits a warmed serve allocates nothing on the accounted backend.
func (s *responder) serve(ctx Env, sc *scratch, r *runShared, share int, from p2p.NodeID, req *decryptRequest) {
	if share > r.suite.Parties() {
		return
	}
	resp := sc.response(r, ctx.Cycle(), len(req.Ciphers))
	if len(req.Ciphers) > 0 && s.ciphers != nil && s.iter == req.Iter &&
		len(s.ciphers) == len(req.Ciphers) && &s.ciphers[0] == &req.Ciphers[0] {
		s.hits++
		copy(resp.Partials, s.parts)
	} else {
		for i, c := range req.Ciphers {
			p, err := r.suite.PartialDecrypt(share, c)
			if err != nil {
				return
			}
			resp.Partials[i] = p
		}
		s.iter, s.ciphers = req.Iter, req.Ciphers
		s.parts = append(s.parts[:0], resp.Partials...)
	}
	resp.Iter = req.Iter
	respBytes := len(resp.Partials)*r.suite.CipherBytes() + 8
	if ctx.Send(from, resp, respBytes) == nil {
		s.respBytes += int64(respBytes)
	}
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

// decodeAll opens the frozen vector, whose push-sum state is st, into
// s's group integers — the partial sets in ascending share-index order
// (collect), so the responder-set cache keys and OpCounts profiles are
// deterministic — and decodes the fixed-point plaintexts to floats,
// already divided by the push-sum weight and the pre-scaling factor. It
// always returns sideLen coordinates, in s's storage.
func (q *requester) decodeAll(r *runShared, s *scratch, st *gossip.State[Cipher]) ([]float64, error) {
	plains := s.groups[:len(q.req.Ciphers)]
	if err := r.suite.CombineColumnsInto(plains, q.partials); err != nil {
		return nil, err
	}
	signed, err := r.signedAggregates(s, plains, st.H, st.W)
	if err != nil {
		return nil, err
	}
	denom := st.W * math.Ldexp(1, int(r.preScale))
	out := s.decoded[:len(signed)]
	for i, v := range signed {
		if out[i], err = r.decodeSigned(v, denom, i); err != nil {
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
func (r *runShared) signedAggregates(s *scratch, plains []*big.Int, h uint, w float64) ([]*big.Int, error) {
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
func (r *runShared) decodeSigned(signed *big.Int, denom float64, i int) (float64, error) {
	v := r.codec.Decode(signed) / denom
	if math.Abs(v) > r.decodeBound || math.IsNaN(v) {
		return 0, fmt.Errorf("core: decoded coordinate %d implausible (%g) — gossip invariant violated", i, v)
	}
	return v, nil
}
