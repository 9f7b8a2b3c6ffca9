package core

import (
	"math/big"
	"runtime"
	"testing"
	"weak"

	"chiaroscuro/internal/p2p"
)

// messages wraps payloads as an inbox, in order.
func messages(payloads ...any) []p2p.Message {
	in := make([]p2p.Message, len(payloads))
	for i, pl := range payloads {
		in[i] = p2p.Message{From: p2p.NodeID(i + 1), Payload: pl}
	}
	return in
}

// TestScratchBlockReleasesReferences: a scratch block holds no payload,
// partial or cipher reference once its cycle is spent. A participant is
// stepped by hand through one block: at cycle 1 its inbox holds two
// gossips, which it absorbs as a batch through the block's batch and
// column, and two decrypt requests, which it answers into the block's
// responses (the accounted backend's partials are the requested
// ciphers themselves). Once the activation returns nothing of the
// gossips is reachable, nor anything of the first request, which the
// memo does not hold. Its response is kept through cycle 2, when the
// requester reads it, and dropped by the block's first activation at
// cycle 3.
func TestScratchBlockReleasesReferences(t *testing.T) {
	const n = 8
	r := openTestRun(t, blobs(n, 2, 2), Params{K: 2, Epsilon: 50, Iterations: 1, Seed: 1, GossipRounds: 6, DecryptThreshold: 3})
	pt, sc := r.newParticipant(0), r.newScratch()
	env := &scriptedEnv{id: 0, n: n}
	step := func(cycle int) {
		t.Helper()
		env.cycle, env.peers, env.next = cycle, []p2p.NodeID{1}, 0
		pt.step(env, sc)
		env.sent = nil
		if pt.phase != phaseGossip {
			t.Fatalf("cycle %d left the participant in phase %d, want the gossip phase", cycle, pt.phase)
		}
	}
	step(0)

	gossips, answered := stockInbox(t, r, env)
	step(1)
	if got := len(sc.responses[1].bufs); sc.responses[1].used != 2 || got < 2 {
		t.Fatalf("cycle 1 answered %d requests into %d buffers, want 2", sc.responses[1].used, got)
	}
	runtime.GC()
	for i, alive := range gossips {
		if alive() {
			t.Fatalf("gossip reference %d is reachable after its activation", i)
		}
	}
	if !answered() {
		t.Fatal("the first request was released before its response could be read")
	}
	step(2)
	runtime.GC()
	if !answered() {
		t.Fatal("a response was released in the cycle its requester reads it")
	}
	step(3)
	runtime.GC()
	if answered() {
		t.Fatal("the block still holds a partial of a response sent two cycles ago")
	}
	runtime.KeepAlive(pt)
	runtime.KeepAlive(sc)
}

// stockInbox puts two same-iteration gossips and two decrypt requests
// into env's inbox. It returns a reachability probe, through a weak
// pointer, for each gossip payload, message and cipher, and one for the
// first request's first cipher.
func stockInbox(t *testing.T, r *runShared, env *scriptedEnv) (gossips []func() bool, answered func() bool) {
	t.Helper()
	var payloads []any
	for id := 1; id <= 2; id++ {
		q := r.newParticipant(p2p.NodeID(id))
		q.stepAssign(&scriptedEnv{id: p2p.NodeID(id), n: env.n}, r.newScratch())
		msg := q.diptych.Means.Emit()
		pl := &gossipPayload{Iter: 0, Centroids: q.diptych.Centroids, Msg: msg}
		payloads = append(payloads, pl)
		gossips = append(gossips, reachable(pl), reachable(msg))
		for _, c := range msg.V {
			gossips = append(gossips, reachable(c))
		}
	}
	for range 2 {
		cs := make([]Cipher, r.sideCiphers)
		for i := range cs {
			c, err := r.suite.Encrypt(big.NewInt(int64(i + 1)))
			if err != nil {
				t.Fatal(err)
			}
			cs[i] = c
		}
		payloads = append(payloads, &decryptRequest{Iter: 0, Ciphers: cs})
	}
	env.inbox = messages(payloads...)
	return gossips, reachable(payloads[2].(*decryptRequest).Ciphers[0])
}

// reachable returns a probe reporting whether p's referent is still
// reachable (after a collection), holding it only weakly.
func reachable[T any](p *T) func() bool {
	w := weak.Make(p)
	return func() bool { return w.Value() != nil }
}

// TestScratchBlockHoldsAFullInbox: a block is sized for the most
// gossips a fault-free inbox can hold, population−1, from the moment it
// binds: a shard whose in-degree record is broken by a node receiving
// from every peer at once allocates nothing for it. Every measured
// absorb runs in a block no activation has used.
func TestScratchBlockHoldsAFullInbox(t *testing.T) {
	const n = 64
	r := openTestRun(t, blobs(n, 2, 2), Params{K: 2, Epsilon: 50, Iterations: 1, Seed: 1, GossipRounds: 6, DecryptThreshold: 3})
	pt := r.newParticipant(0)
	pt.stepAssign(&scriptedEnv{id: 0, n: n}, r.newScratch())
	q := r.newParticipant(1)
	q.stepAssign(&scriptedEnv{id: 1, n: n}, r.newScratch())
	full := make([]any, n-1)
	for i := range full {
		full[i] = &gossipPayload{Iter: 0, Centroids: q.diptych.Centroids, Msg: q.diptych.Means.Emit()}
		q.diptych.Means.H-- // every message at the receiver's exponent once it has absorbed one
	}
	inbox := messages(full...)
	const runs = 4
	blocks := make([]*scratch, runs+1) // AllocsPerRun runs once before measuring
	for i := range blocks {
		blocks[i] = r.newScratch()
	}
	env := &scriptedEnv{id: 0, n: n}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		pt.handleGossips(env, blocks[next], inbox)
		next++
	})
	if allocs != 0 || pt.staleDrops != 0 {
		t.Fatalf("absorbing %d gossips in an unused block allocates %.1f objects (%d dropped)", n-1, allocs, pt.staleDrops)
	}
}
