package core

import (
	"math/big"
	"reflect"
	"testing"

	"chiaroscuro/internal/p2p"
)

// scriptedEnv is a minimal Env for driving participant decrypt methods
// directly: RandomPeer replays a scripted draw sequence and Send records
// deliveries.
type scriptedEnv struct {
	id    p2p.NodeID
	n     int
	cycle int
	peers []p2p.NodeID // scripted RandomPeer draws, in order
	next  int
	sent  []scriptedSend
}

type scriptedSend struct {
	to      p2p.NodeID
	payload any
	bytes   int
}

func (e *scriptedEnv) ID() p2p.NodeID  { return e.id }
func (e *scriptedEnv) Cycle() int      { return e.cycle }
func (e *scriptedEnv) AliveCount() int { return e.n }
func (e *scriptedEnv) Inbox() []p2p.Message {
	return nil
}
func (e *scriptedEnv) Send(to p2p.NodeID, payload any, bytes int) error {
	e.sent = append(e.sent, scriptedSend{to: to, payload: payload, bytes: bytes})
	return nil
}
func (e *scriptedEnv) RandomPeer() (p2p.NodeID, bool) {
	if e.next >= len(e.peers) {
		return -1, false
	}
	p := e.peers[e.next]
	e.next++
	return p, true
}

var _ Env = (*scriptedEnv)(nil)

func decryptTestParticipant(t *testing.T, n int) (*runShared, *participant) {
	t.Helper()
	r := openTestRun(t, blobs(n, 2, 2), Params{
		K: 2, Epsilon: 50, Iterations: 1, Seed: 1,
		GossipRounds: 4, DecryptThreshold: 3,
	})
	pt := r.newParticipant(0)
	// The request window's state, as stepGossip leaves it on entry to
	// the decrypt phase.
	pt.openWindow()
	return r, pt
}

// window returns pt's request window as the set of asked peers and the
// remaining TTL of each in-flight ask.
func window(pt *participant) (asked map[p2p.NodeID]bool, inFlight map[p2p.NodeID]int) {
	asked, inFlight = map[p2p.NodeID]bool{}, map[p2p.NodeID]int{}
	for _, a := range pt.asks {
		asked[a.peer] = true
		if a.ttl > 0 {
			inFlight[a.peer] = a.ttl
		}
	}
	return asked, inFlight
}

// TestTopUpAsksRedrawsPastAskedPeers is the satellite-1 regression: a
// draw landing on an already-asked peer must be redrawn, not silently
// dropped from the wave. The scripted sequence interleaves stale draws
// with fresh peers; the window must still reach `missing` asks.
func TestTopUpAsksRedrawsPastAskedPeers(t *testing.T) {
	_, pt := decryptTestParticipant(t, 12)
	pt.asks = []ask{{peer: 1}, {peer: 2}} // asked and answered
	env := &scriptedEnv{id: 0, n: 12, peers: []p2p.NodeID{1, 2, 1, 3, 2, 2, 4, 5}}
	req := &decryptRequest{Iter: 0}
	pt.topUpAsks(env, 2, req, 10)
	if len(env.sent) != 2 {
		t.Fatalf("sent %d asks, want 2 (stale draws must be redrawn)", len(env.sent))
	}
	if env.sent[0].to != 3 || env.sent[1].to != 4 {
		t.Fatalf("asked %v and %v, want the first two un-asked draws 3 and 4", env.sent[0].to, env.sent[1].to)
	}
	asked, outstanding := window(pt)
	if len(outstanding) != 2 || outstanding[3] != askTTL || outstanding[4] != askTTL {
		t.Fatalf("outstanding = %v, want {3:%d 4:%d}", outstanding, askTTL, askTTL)
	}
	if !asked[3] || !asked[4] {
		t.Fatal("fresh asks must be recorded in asked")
	}
	if pt.decryptReqs != 2 || pt.decryptReqBytes != 20 {
		t.Fatalf("request accounting = (%d, %d), want (2, 20)", pt.decryptReqs, pt.decryptReqBytes)
	}
}

// TestTopUpAsksWindowDiscipline pins the window semantics: a full window
// sends nothing, TTLs age per activation, expired asks are re-provisioned
// to new peers, and a slow quorum escalates the target by one.
func TestTopUpAsksWindowDiscipline(t *testing.T) {
	_, pt := decryptTestParticipant(t, 12)
	req := &decryptRequest{Iter: 0}

	// First activation fills the window.
	env := &scriptedEnv{id: 0, n: 12, peers: []p2p.NodeID{3, 4, 5, 6, 7, 8, 9, 10, 11}}
	pt.topUpAsks(env, 2, req, 10)
	if len(env.sent) != 2 {
		t.Fatalf("initial fill sent %d, want 2", len(env.sent))
	}
	// Second and third activations: window full, only TTL aging.
	pt.topUpAsks(env, 2, req, 10)
	if len(env.sent) != 2 {
		t.Fatalf("full window must not send; sent %d", len(env.sent))
	}
	if _, outstanding := window(pt); outstanding[3] != askTTL-1 || outstanding[4] != askTTL-1 {
		t.Fatalf("TTLs not aged: %v", outstanding)
	}
	pt.topUpAsks(env, 2, req, 10)
	// Fourth activation: both initial asks expire and are re-provisioned.
	pt.topUpAsks(env, 2, req, 10)
	if len(env.sent) != 4 {
		t.Fatalf("expired asks must be re-provisioned; sent %d, want 4", len(env.sent))
	}
	if _, outstanding := window(pt); outstanding[3] != 0 {
		t.Fatal("expired ask still outstanding")
	}

	// Escalation: with waitCycles at the TTL, the target is missing+1.
	pt2 := pt
	pt2.asks = pt2.asks[:0]
	pt2.waitCycles = askTTL
	env2 := &scriptedEnv{id: 0, n: 12, peers: []p2p.NodeID{1, 2, 3, 4, 5}}
	pt2.topUpAsks(env2, 2, req, 10)
	if len(env2.sent) != 3 {
		t.Fatalf("slow quorum must over-provision by one; sent %d, want 3", len(env2.sent))
	}

	// Pool exhaustion terminates cleanly: every scripted draw is already
	// asked, so nothing is sent and the loop ends with the pool.
	env3 := &scriptedEnv{id: 0, n: 12, peers: []p2p.NodeID{1, 1, 1}}
	pt2.topUpAsks(env3, 5, req, 10)
	if got := len(env3.sent); got != 0 {
		t.Fatalf("exhausted pool still sent %d asks", got)
	}
}

// TestServeDecryptMemoizesPartials is the satellite-3 property: replays
// of the same (iteration, cipher-set) request are served from the memo
// without recomputing the per-cipher partial decryptions, and anything
// else misses. Responses are answered in the responder's cycle-parity
// buffers, recycled two cycles later: a request served after that must
// carry its own partials, whether it hits the memo or misses it.
func TestServeDecryptMemoizesPartials(t *testing.T) {
	r, pt := decryptTestParticipant(t, 12)
	if !r.parityEmits {
		t.Fatal("a fault-free run must answer into parity buffers")
	}
	var cs []Cipher
	for _, v := range []int64{5, 9, 11, 13} {
		c, err := r.suite.Encrypt(big.NewInt(v))
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	c1, c2 := cs[0], cs[1]
	env := &scriptedEnv{id: 0, n: 12}
	req := &decryptRequest{Iter: 0, Ciphers: []Cipher{c1, c2}}

	pt.serveDecrypt(env, 7, req)
	if pt.servedHits != 0 {
		t.Fatalf("first request hit the memo (%d hits)", pt.servedHits)
	}
	computed := r.suite.Counts().PartialDecrypts
	pt.serveDecrypt(env, 8, req) // replay: same iteration, same cipher slice
	if pt.servedHits != 1 {
		t.Fatalf("replay missed the memo (%d hits)", pt.servedHits)
	}
	if got := r.suite.Counts().PartialDecrypts; got != computed {
		t.Fatalf("memo hit recomputed %d partial decryptions", got-computed)
	}
	r1 := env.sent[0].payload.(*decryptResponse)
	r2 := env.sent[1].payload.(*decryptResponse)
	if !reflect.DeepEqual(r1.Partials, r2.Partials) {
		t.Fatal("cached partials differ from the originals")
	}

	// A different cipher slice (even with equal contents) misses: the memo
	// key is the slice identity, the only cheap guarantee the partials
	// belong to exactly these ciphertexts.
	other := &decryptRequest{Iter: 0, Ciphers: []Cipher{c1, c2}}
	pt.serveDecrypt(env, 9, other)
	if pt.servedHits != 1 {
		t.Fatalf("different slice must miss (%d hits)", pt.servedHits)
	}
	// A different iteration over the same slice misses too.
	stale := &decryptRequest{Iter: 1, Ciphers: other.Ciphers}
	pt.serveDecrypt(env, 9, stale)
	if pt.servedHits != 1 {
		t.Fatalf("different iteration must miss (%d hits)", pt.servedHits)
	}
	if pt.decryptRespBytes == 0 {
		t.Fatal("response bytes not accounted")
	}

	// Recycling. At cycle 6 the responder reuses cycle 4's buffers, which
	// answered c and then a: a duplicate of a, the memoized request, hits
	// the memo, b then misses, and a duplicate of c misses (the memo moved
	// on). Each must carry the partials of its own ciphertexts — a memo
	// pointing at a's cycle-4 buffer would hand it to b or c.
	a := &decryptRequest{Iter: 2, Ciphers: []Cipher{cs[2], cs[3]}}
	b := &decryptRequest{Iter: 2, Ciphers: []Cipher{c1, c2}}
	c := &decryptRequest{Iter: 2, Ciphers: []Cipher{cs[3], c1}}
	env.cycle = 4
	pt.serveDecrypt(env, 9, c)
	pt.serveDecrypt(env, 9, a)
	env.cycle = 6
	hits := pt.servedHits
	first := len(env.sent)
	for _, q := range []*decryptRequest{a, b, c} {
		pt.serveDecrypt(env, 10, q)
	}
	if pt.servedHits != hits+1 {
		t.Fatalf("%d memo hits after recycling, want 1 (the duplicate of the memoized request)", pt.servedHits-hits)
	}
	for i, q := range []*decryptRequest{a, b, c} {
		got := env.sent[first+i].payload.(*decryptResponse)
		if got.Iter != q.Iter || len(got.Partials) != len(q.Ciphers) {
			t.Fatalf("response %d: iteration %d with %d partials, want %d with %d", i, got.Iter, len(got.Partials), q.Iter, len(q.Ciphers))
		}
		for j, ct := range q.Ciphers {
			want, err := r.suite.PartialDecrypt(1, ct)
			if err != nil {
				t.Fatal(err)
			}
			if got.Partials[j].Index != want.Index || got.Partials[j].Value.Cmp(want.Value) != 0 {
				t.Fatalf("response %d, partial %d is not the partial of its own ciphertext", i, j)
			}
		}
	}
}

// TestLateSyncOpensAnEmptyWindow: a participant collecting partials for
// iteration i that late-synchronizes onto a gossip of iteration i+1
// leaves the decrypt phase without finishIteration. Its i+1 window must
// open empty — no responder set, asked peer or in-flight ask left over
// from i — so it asks a full quorum again, the peers it asked for i
// included.
func TestLateSyncOpensAnEmptyWindow(t *testing.T) {
	const rounds, threshold = 2, 3
	r := openTestRun(t, blobs(12, 2, 2), Params{
		K: 2, Epsilon: 50, Iterations: 3, Seed: 1,
		GossipRounds: rounds, DecryptThreshold: threshold,
	})
	pt := r.newParticipant(0)
	peers := []p2p.NodeID{4, 5, 6}
	env := &scriptedEnv{id: 0, n: 12}
	gossipRounds := func() {
		for i := 0; i < rounds; i++ {
			env.peers, env.next = []p2p.NodeID{1}, 0
			pt.stepGossip(env)
		}
	}

	// Iteration 0: ask three peers, collect one set, one ask settled.
	pt.stepAssign(env)
	gossipRounds()
	env.peers, env.next = peers, 0
	pt.stepDecrypt(env, nil)
	parts := make([]Partial, len(pt.pendingCT))
	for i, c := range pt.pendingCT {
		p, err := r.suite.PartialDecrypt(int(peers[0])+1, c)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = p
	}
	pt.stepDecrypt(env, []*decryptResponse{{Iter: 0, Partials: parts}})
	if asked, inFlight := window(pt); len(pt.partials) != 1 || len(asked) != 3 || len(inFlight) != 2 {
		t.Fatalf("iteration 0 window: %d sets, asked %v, in flight %v; want 1 set, 3 asked, 2 in flight", len(pt.partials), asked, inFlight)
	}

	// A gossip of iteration 1 arrives: late synchronization.
	q := r.newParticipant(1)
	q.iter = 1
	q.stepAssign(env)
	pt.handleGossips(env, []*gossipPayload{{Iter: 1, Centroids: q.diptych.Centroids, Msg: q.diptych.Means.Emit()}})
	if pt.iter != 1 || pt.phase != phaseGossip {
		t.Fatalf("late sync left iteration %d in phase %d, want iteration 1 in the gossip phase", pt.iter, pt.phase)
	}
	gossipRounds()
	if pt.phase != phaseDecrypt {
		t.Fatalf("phase %d after the gossip rounds, want the decrypt phase", pt.phase)
	}
	if len(pt.partials) != 0 || len(pt.asks) != 0 || pt.pendingCT != nil {
		t.Fatalf("iteration 1 window opened with %d partial sets and %d asks left over (opening frozen: %v)",
			len(pt.partials), len(pt.asks), pt.pendingCT != nil)
	}
	sent := len(env.sent)
	env.peers, env.next = peers, 0
	pt.stepDecrypt(env, nil)
	var asked []p2p.NodeID
	for _, s := range env.sent[sent:] {
		req, ok := s.payload.(*decryptRequest)
		if !ok || req.Iter != 1 {
			t.Fatalf("iteration 1 window sent %T %+v, want iteration-1 decrypt requests", s.payload, s.payload)
		}
		asked = append(asked, s.to)
	}
	if !reflect.DeepEqual(asked, peers) {
		t.Fatalf("iteration 1 window asked %v, want the full quorum %v", asked, peers)
	}
}

// TestDecryptChurnSmallPopulation is the end-to-end liveness regression
// for the outstanding-request window. The scenario is chosen where
// quorum assembly is hardest: the quorum needs nearly the whole small
// pool (9 of 11 peers) under crash/rejoin churn, so a participant that
// could never re-ask a crashed-then-rejoined peer would exhaust its
// candidates in the first waves. The window's redraws and
// expiry-release re-asks keep every quorum alive: no iteration fails
// across these ten seeds. (When the window replaced the
// threshold+1-blast discipline the figure was 47 against the blast's 77,
// but none of those 47 was a missed quorum: all were shares that a
// crashed-and-rejoined participant had halved past the pre-scale budget,
// decoding to implausible garbage. A participant no longer halves past
// the budget — see stepGossip — so what is left is the window's own
// failure count.)
func TestDecryptChurnSmallPopulation(t *testing.T) {
	const windowedFailures = 0
	data := blobs(12, 2, 2)
	total := 0
	for seed := int64(0); seed < 10; seed++ {
		tr, err := Run(data, Params{
			K: 2, Epsilon: 50, Iterations: 3, Seed: seed,
			GossipRounds: 5, DecryptThreshold: 9, DecryptWindow: 14,
			Faults: mustPlan(t, "churn=0.08/0.5"),
		})
		if err != nil {
			total += 3 // an aborted run failed every iteration
			continue
		}
		total += tr.DecryptFailures
	}
	t.Logf("decrypt failures across 10 churn seeds: %d", total)
	if total > windowedFailures {
		t.Fatalf("near-full-quorum churn scenario: %d decrypt failures, the window's recorded figure is %d", total, windowedFailures)
	}
}

// TestDecryptDeterministicResponderOrder is the satellite-2 regression:
// two identical runs on the real backend must produce bit-identical
// traces AND identical operation counts — the map-ordered combine input
// this pins down used to leak nondeterminism into the responder-set
// cache profile even when the decrypted values agreed.
func TestDecryptDeterministicResponderOrder(t *testing.T) {
	data := blobs(16, 2, 2)
	// DecryptThreshold n-1 makes every participant's responder set
	// all-shares-but-its-own, so iteration 2 must hit the responder-set
	// cache (same subset, same run-level key).
	p := Params{
		K: 2, Epsilon: 50, Iterations: 2, Seed: 7,
		GossipRounds: 5, DecryptThreshold: len(data) - 1,
		Backend: BackendDamgardJurik, ModulusBits: 256,
	}
	run := func() *Trace {
		tr, err := Run(data, p)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.FinalCentroids, b.FinalCentroids) {
		t.Fatal("final centroids differ between identical runs")
	}
	if a.Ops != b.Ops {
		t.Fatalf("operation counts differ between identical runs:\n  %+v\n  %+v", a.Ops, b.Ops)
	}
	if a.DecryptRequests != b.DecryptRequests || a.DecryptBytes != b.DecryptBytes {
		t.Fatal("decrypt accounting differs between identical runs")
	}
	if a.Ops.CombineCtxHits == 0 {
		t.Fatal("no combine-context cache hits in a multi-cipher decrypt run")
	}
}

// TestDecryptWindowStressTable pins quorum assembly across the
// DecryptThreshold edges (tiny quorum, and quorum == n-1 where every
// peer must answer), fault-free: the window sends exactly threshold
// requests per participant-iteration — none wasted on redundancy — never
// fails, and needs no more than three decrypt activations (ask, serve,
// combine) after the assign step and the gossip rounds.
func TestDecryptWindowStressTable(t *testing.T) {
	data := blobs(24, 2, 2)
	const iterations, gossipRounds = 2, 5
	const wantCycles = iterations * (1 + gossipRounds + 3)
	t.Log("threshold  cycles  requests  decryptBytes  fails")
	for _, threshold := range []int{3, len(data) - 1} {
		tr, err := Run(data, Params{
			K: 2, Epsilon: 50, Iterations: iterations, Seed: 3,
			GossipRounds: gossipRounds, DecryptThreshold: threshold, DecryptWindow: 12,
		})
		if err != nil {
			t.Fatalf("threshold=%d: %v", threshold, err)
		}
		t.Logf("%9d  %6d  %8d  %12d  %5d", threshold, tr.CyclesRun, tr.DecryptRequests, tr.DecryptBytes, tr.DecryptFailures)
		if tr.DecryptFailures != 0 {
			t.Errorf("threshold=%d: fault-free run reported %d decrypt failures", threshold, tr.DecryptFailures)
		}
		if want := len(data) * threshold * iterations; tr.DecryptRequests != want {
			t.Errorf("threshold=%d: %d decrypt requests, want n·threshold·iterations = %d", threshold, tr.DecryptRequests, want)
		}
		if tr.CyclesRun > wantCycles {
			t.Errorf("threshold=%d: completed in %d cycles, want at most %d", threshold, tr.CyclesRun, wantCycles)
		}
	}
}

// TestDecryptPhaseAccounting pins the new trace fields: a fault-free run
// classifies cycles into every phase, and the decrypt wire accounting is
// non-zero and consistent with the network totals.
func TestDecryptPhaseAccounting(t *testing.T) {
	data := blobs(24, 2, 2)
	tr, err := Run(data, Params{K: 2, Epsilon: 50, Iterations: 2, Seed: 5, GossipRounds: 5, DecryptThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	ph := tr.Phases
	if ph.AssignCycles == 0 || ph.GossipCycles == 0 || ph.DecryptCycles == 0 {
		t.Fatalf("phase profile missing cycles: %+v", ph)
	}
	if got := ph.AssignCycles + ph.GossipCycles + ph.DecryptCycles; got != tr.CyclesRun {
		t.Fatalf("phase cycles sum to %d, run had %d", got, tr.CyclesRun)
	}
	if tr.DecryptRequests == 0 || tr.DecryptBytes == 0 {
		t.Fatalf("decrypt accounting empty: %d requests, %d bytes", tr.DecryptRequests, tr.DecryptBytes)
	}
	if tr.DecryptBytes >= tr.NetStats.BytesSent {
		t.Fatalf("decrypt bytes (%d) exceed total wire bytes (%d)", tr.DecryptBytes, tr.NetStats.BytesSent)
	}
}
