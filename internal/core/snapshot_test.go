package core

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chiaroscuro/internal/p2p"
)

// snapshot_test.go drives networked Nodes through an in-memory mesh —
// the transport's epoch clock without the TCP — and checks that a node
// snapshotted mid-run and restored into a fresh process image continues
// the run bit-identically. The mini-mesh routes every payload through
// EncodePayload/DecodePayload, so a snapshot round-trip is exercised
// against exactly the state a real daemon would have.

// memMesh steps a full population of Nodes under the simulator's
// message-visibility contract: payloads sent at epoch e are delivered
// at e+1, inboxes ordered by ascending sender id with per-sender FIFO.
type memMesh struct {
	nodes    []*Node
	samplers []*p2p.Sampler
	// pending[to][from] is the FIFO of encoded payloads sent this epoch.
	pending []map[int][][]byte
}

func newMemMesh(t testing.TB, data [][]float64, params Params) *memMesh {
	t.Helper()
	m := &memMesh{
		nodes:    make([]*Node, len(data)),
		samplers: make([]*p2p.Sampler, len(data)),
		pending:  make([]map[int][][]byte, len(data)),
	}
	for id := range data {
		nd, err := NewNode(data, params, id)
		if err != nil {
			t.Fatalf("NewNode(%d): %v", id, err)
		}
		m.nodes[id] = nd
		m.samplers[id] = p2p.NewSampler(nd.SamplingSeed(), p2p.NodeID(id), len(data))
		m.pending[id] = map[int][][]byte{}
	}
	return m
}

func (m *memMesh) close() {
	for _, nd := range m.nodes {
		if nd != nil {
			nd.Close()
		}
	}
}

type memEnv struct {
	m     *memMesh
	id    int
	epoch int
	inbox []p2p.Message
	next  []map[int][][]byte
	t     testing.TB
}

func (e *memEnv) ID() p2p.NodeID       { return p2p.NodeID(e.id) }
func (e *memEnv) Cycle() int           { return e.epoch }
func (e *memEnv) AliveCount() int      { return len(e.m.nodes) }
func (e *memEnv) Inbox() []p2p.Message { return e.inbox }
func (e *memEnv) RandomPeer() (p2p.NodeID, bool) {
	return e.m.samplers[e.id].RandomPeer()
}
func (e *memEnv) Send(to p2p.NodeID, payload any, bytes int) error {
	raw, err := e.m.nodes[e.id].EncodePayload(payload)
	if err != nil {
		e.t.Fatalf("node %d encode at epoch %d: %v", e.id, e.epoch, err)
	}
	e.next[int(to)][e.id] = append(e.next[int(to)][e.id], raw)
	return nil
}

// stepEpoch advances the whole mesh one epoch, returning whether every
// node is done.
func (m *memMesh) stepEpoch(t testing.TB, epoch int) bool {
	t.Helper()
	next := make([]map[int][][]byte, len(m.nodes))
	for id := range next {
		next[id] = map[int][][]byte{}
	}
	allDone := true
	for id, nd := range m.nodes {
		var inbox []p2p.Message
		for from := 0; from < len(m.nodes); from++ {
			for _, raw := range m.pending[id][from] {
				payload, err := nd.DecodePayload(raw)
				if err != nil {
					t.Fatalf("node %d decode from %d at epoch %d: %v", id, from, epoch, err)
				}
				inbox = append(inbox, p2p.Message{From: p2p.NodeID(from), Payload: payload, Bytes: len(raw)})
			}
		}
		env := &memEnv{m: m, id: id, epoch: epoch, inbox: inbox, next: next, t: t}
		nd.Step(env)
		if !nd.Done() {
			allDone = false
		}
	}
	m.pending = next
	return allDone
}

// run steps until the whole population terminates.
func (m *memMesh) run(t *testing.T, from int) {
	t.Helper()
	limit := m.nodes[0].MaxCycles()
	for epoch := from; epoch < limit; epoch++ {
		if m.stepEpoch(t, epoch) {
			return
		}
	}
	t.Fatalf("mesh did not terminate within %d epochs", limit)
}

func requireEqualHistories(t *testing.T, got, want [][]IterationResult, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d histories, want %d", label, len(got), len(want))
	}
	for id := range want {
		if len(got[id]) != len(want[id]) {
			t.Fatalf("%s: node %d disclosed %d iterations, want %d", label, id, len(got[id]), len(want[id]))
		}
		for i := range want[id] {
			g, w := got[id][i], want[id][i]
			if g.Iteration != w.Iteration || g.Assignment != w.Assignment ||
				g.DecryptFailed != w.DecryptFailed || g.CompletedAtCycle != w.CompletedAtCycle ||
				g.Epsilon != w.Epsilon || g.Displacement != w.Displacement {
				t.Fatalf("%s: node %d iteration %d diverges: %+v vs %+v", label, id, i, g, w)
			}
			for j := range w.PerturbedCentroids {
				for d := range w.PerturbedCentroids[j] {
					if g.PerturbedCentroids[j][d] != w.PerturbedCentroids[j][d] {
						t.Fatalf("%s: node %d iteration %d centroid [%d][%d] diverges", label, id, i, j, d)
					}
				}
			}
		}
	}
}

func (m *memMesh) histories() [][]IterationResult {
	out := make([][]IterationResult, len(m.nodes))
	for id, nd := range m.nodes {
		out[id] = nd.History()
	}
	return out
}

func snapshotTestConfig() ([][]float64, Params) {
	data := blobs(4, 6, 2)
	params := Params{K: 2, Epsilon: 1.0, Iterations: 2, Seed: 99, Backend: BackendPlainAccounted}
	return data, params
}

// TestMemMeshMatchesSequential sanity-checks the mini-mesh itself: its
// epoch clock must reproduce the sequential engine's trajectories, or
// the snapshot tests below would be comparing against a broken oracle.
func TestMemMeshMatchesSequential(t *testing.T) {
	data, params := snapshotTestConfig()
	_, want, err := RunSequentialHistories(data, params)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	m := newMemMesh(t, data, params)
	defer m.close()
	m.run(t, 0)
	requireEqualHistories(t, m.histories(), want, "mem mesh")
}

// TestSnapshotRestoreMidRun is the core crash-recovery property: at
// every epoch of the run, snapshotting EVERY node, restoring each into
// a brand-new Node (fresh suite, fresh participant) and continuing must
// disclose trajectories bit-identical to the uninterrupted reference.
// Cycling the interruption point across all epochs covers every phase
// of the protocol state machine (assign, gossip, decrypt, done).
func TestSnapshotRestoreMidRun(t *testing.T) {
	data, params := snapshotTestConfig()
	_, want, err := RunSequentialHistories(data, params)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}

	// Measure the uninterrupted run length first.
	probe := newMemMesh(t, data, params)
	epochs := 0
	for !probe.stepEpoch(t, epochs) {
		epochs++
	}
	probe.close()
	if epochs < 3 {
		t.Fatalf("run too short (%d epochs) to exercise mid-run snapshots", epochs)
	}

	for cut := 1; cut <= epochs; cut++ {
		m := newMemMesh(t, data, params)
		for e := 0; e < cut; e++ {
			m.stepEpoch(t, e)
		}
		// Crash the whole population: serialize, discard, restore.
		for id, nd := range m.nodes {
			snap, err := nd.AppendSnapshot(nil)
			if err != nil {
				t.Fatalf("cut %d: snapshot node %d: %v", cut, id, err)
			}
			nd.Close()
			restored, err := RestoreNode(data, params, id, snap)
			if err != nil {
				t.Fatalf("cut %d: restore node %d: %v", cut, id, err)
			}
			m.nodes[id] = restored
			// The peer sampler is checkpointed alongside in the real
			// daemon; mirror that here.
			st := m.samplers[id].State()
			m.samplers[id] = p2p.NewSampler(restored.SamplingSeed(), p2p.NodeID(id), len(data))
			m.samplers[id].SetState(st)
		}
		m.run(t, cut)
		requireEqualHistories(t, m.histories(), want, "restored mesh")
		m.close()
	}
}

// TestSnapshotRejectsMismatch pins the guard rails: a snapshot must not
// restore into the wrong node id or a different run configuration.
func TestSnapshotRejectsMismatch(t *testing.T) {
	data, params := snapshotTestConfig()
	nd, err := NewNode(data, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	snap, err := nd.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreNode(data, params, 2, snap); err == nil {
		t.Fatal("restore accepted a snapshot belonging to another node")
	}
	other := params
	other.Seed++
	if _, err := RestoreNode(data, other, 1, snap); err == nil {
		t.Fatal("restore accepted a snapshot from a different run configuration")
	}
	for _, cut := range []int{0, 1, 4, 8, len(snap) - 1} {
		if cut >= len(snap) {
			continue
		}
		if _, err := RestoreNode(data, params, 1, snap[:cut]); err == nil {
			t.Fatalf("restore accepted a snapshot truncated to %d bytes", cut)
		}
	}
	mut := bytes.Clone(snap)
	mut[len(mut)-1] ^= 0xFF
	if _, err := RestoreNode(data, params, 1, mut); err == nil {
		t.Fatal("restore accepted a corrupted snapshot")
	}
	// A checkpoint written before the push-sum state carried its halving
	// exponent (format 2) holds values that mean something else, one
	// written before every run packed at encryption (formats 3 and 4)
	// holds push-sum vectors, pending ciphertexts and partial sets of the
	// wrong shape, and one written before the noise was added at
	// encryption (format 5) holds a push-sum vector of two sides: all are
	// refused by version, not reinterpreted. The version is the second
	// scalar field: 4 bytes of length prefix, then the value, after the
	// magic's 8.
	for _, version := range []uint32{2, 3, 4, 5} {
		old := bytes.Clone(snap)
		binary.BigEndian.PutUint32(old[12:], version)
		want := fmt.Sprintf("version %d, want 6", version)
		if _, err := RestoreNode(data, params, 1, old); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("restore of a format-%d snapshot: %v, want %q", version, err, want)
		}
	}
}

// TestSnapshotRejectsUnreachableStates: honest execution freezes an
// opening only in the decrypt phase, collects partial sets and asks
// peers only once it has, and holds a push-sum state throughout the
// gossip and decrypt phases. A snapshot of any other state is refused —
// a node restored with an opening outside the decrypt phase would skip
// step 2c at its next window and open a stale vector, and one without
// a push-sum state would crash at its next step.
func TestSnapshotRejectsUnreachableStates(t *testing.T) {
	data, params, m := midGossipMesh(t)
	defer m.close()
	for id, tc := range []struct {
		name  string
		stray func(p *participant)
		want  string
	}{
		{"an opening mid-gossip", func(p *participant) {
			p.window.freeze(p.run, p.iter, p.diptych.Means.V)
		}, "pending ciphertexts outside decrypt phase"},
		{"a partial set without an opening", func(p *participant) {
			p.phase = phaseDecrypt
			ps := make([]Partial, len(p.diptych.Means.V))
			for i, c := range p.diptych.Means.V {
				var err error
				if ps[i], err = p.run.suite.PartialDecrypt(2, c); err != nil {
					t.Fatal(err)
				}
			}
			p.window.collect(p.run, ps)
		}, "partials without pending ciphertexts"},
		{"an ask without an opening", func(p *participant) {
			p.phase = phaseDecrypt
			p.window.topUpAsks(&scriptedEnv{n: len(data), peers: []p2p.NodeID{3}}, p.run, 1, &decryptRequest{}, 0)
		}, "asked peers without pending ciphertexts"},
		{"no push-sum state mid-gossip", func(p *participant) {
			p.diptych.Means = nil
		}, "phase 1 without push-sum state"},
	} {
		nd := m.nodes[id]
		tc.stray(nd.pt)
		snap, err := nd.AppendSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreNode(data, params, id, snap); !errors.Is(err, errSnapshot) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("restore of %s: %v, want %q", tc.name, err, tc.want)
		}
	}
}

// midGossipMesh runs the snapshot configuration's mesh into the gossip
// phase of its first iteration, where every node's push-sum state has a
// halving exponent above zero.
func midGossipMesh(t testing.TB) ([][]float64, Params, *memMesh) {
	t.Helper()
	data, params := snapshotTestConfig()
	m := newMemMesh(t, data, params)
	for epoch := 0; epoch < 5; epoch++ {
		m.stepEpoch(t, epoch)
	}
	for id, nd := range m.nodes {
		if nd.pt.phase != phaseGossip || nd.pt.diptych.Means.H == 0 {
			t.Fatalf("node %d at epoch 5: phase %d, exponent %d; want mid-gossip", id, nd.pt.phase, nd.pt.diptych.Means.H)
		}
	}
	return data, params, m
}

// TestSnapshotCarriesTheExponent: the halving exponent is push-sum
// state like the weight beside it — it survives the round trip, and a
// snapshot claiming more halvings than a state can have undergone is
// malformed.
func TestSnapshotCarriesTheExponent(t *testing.T) {
	data, params, m := midGossipMesh(t)
	defer m.close()
	nd := m.nodes[2]
	snap, err := nd.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := RestoreNode(data, params, 2, snap)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	got, want := back.pt.diptych.Means, nd.pt.diptych.Means
	if got.H != want.H || got.W != want.W {
		t.Fatalf("restored (h=%d, w=%v), snapshotted (h=%d, w=%v)", got.H, got.W, want.H, want.W)
	}
	again, err := back.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, again) {
		t.Fatal("snapshot of the restored node differs from the snapshot it was restored from")
	}
	// The budget is the most a state ever holds (the wire's limit too).
	nd.pt.diptych.Means.H = nd.pt.run.preScale
	edge, err := nd.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	atBudget, err := RestoreNode(data, params, 2, edge)
	if err != nil {
		t.Fatalf("restore at the budget: %v", err)
	}
	atBudget.Close()
	nd.pt.diptych.Means.H++
	over, err := nd.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreNode(data, params, 2, over); !errors.Is(err, errSnapshot) {
		t.Fatalf("restore of an impossible exponent: %v, want a malformed-snapshot error", err)
	}
}

// djSnapshotTestConfig is the snapshot configuration on Damgård–Jurik at
// 128 bits, keyed by an in-process ceremony.
func djSnapshotTestConfig(t testing.TB) ([][]float64, Params) {
	t.Helper()
	data, params := snapshotTestConfig()
	params.Backend, params.ModulusBits, params.DecryptThreshold = BackendDamgardJurik, 128, 2
	params = params.Defaulted(len(data))
	mat, err := RunDJKeyCeremony(params.ModulusBits, params.Degree, len(data), params.DecryptThreshold, params.Seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	params.DJMaterial = mat
	return data, params
}

// midDecryptNode steps the mesh into the decrypt phase of its second
// iteration (asked and outstanding peers, pending ciphertexts, one
// history entry) and gives node 0 two partial sets, out of index order —
// with the mid-gossip state, every branch of the snapshot encoding.
func midDecryptNode(t testing.TB, m *memMesh) *Node {
	t.Helper()
	for epoch := 5; epoch < 30; epoch++ {
		m.stepEpoch(t, epoch)
	}
	nd := m.nodes[0]
	p := nd.pt
	if p.phase != phaseDecrypt || p.window.req == nil || len(p.window.asks) == 0 || len(p.history) == 0 {
		t.Fatalf("node 0 at epoch 30: phase %d, pending %v, %d asked, %d disclosed; want mid-decrypt of iteration 2",
			p.phase, p.window.req != nil, len(p.window.asks), len(p.history))
	}
	for _, party := range []int{3, 1} {
		ps := make([]Partial, len(p.window.req.Ciphers))
		for i, c := range p.window.req.Ciphers {
			var err error
			if ps[i], err = p.run.suite.PartialDecrypt(party, c); err != nil {
				t.Fatal(err)
			}
		}
		p.window.collect(p.run, ps)
	}
	return nd
}

// TestSnapshotBytesUnchanged pins AppendSnapshot against recorded bytes.
// testdata/snapshot_v6_*.hex are node 0's snapshots as AppendSnapshot
// wrote them when every run began adding its noise shares before
// encryption, for FuzzRestoreNode's seed states and a mid-decrypt one,
// on both backends. The accounted states are a pure
// function of the seed, so the same state built here must encode to the
// recorded bytes. Damgård–Jurik ciphertexts are randomized per process,
// so there the recorded snapshot is restored and written out again —
// which is also the upgrade path: a checkpoint an older daemon wrote
// resumes under this one.
func TestSnapshotBytesUnchanged(t *testing.T) {
	recorded := func(name string) []byte {
		t.Helper()
		text, err := os.ReadFile(filepath.Join("testdata", "snapshot_v6_"+name+".hex"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := hex.DecodeString(strings.TrimSpace(string(text)))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	check := func(name string, data [][]float64, params Params, live *Node) {
		t.Helper()
		want := recorded(name)
		if live != nil {
			got, err := live.AppendSnapshot(nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: AppendSnapshot wrote %d bytes that differ from the %d Snapshot() wrote", name, len(got), len(want))
			}
		}
		back, err := RestoreNode(data, params, 0, want)
		if err != nil {
			t.Fatalf("%s: restoring the recorded snapshot: %v", name, err)
		}
		defer back.Close()
		// Behind a prefix: nothing in the encoding may depend on where in
		// the caller's buffer it starts.
		again, err := back.AppendSnapshot([]byte("prefix"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(again[len("prefix"):], want) {
			t.Fatalf("%s: the restored node's snapshot differs from the recorded one it was restored from", name)
		}
	}

	data, params := snapshotTestConfig()
	fresh, err := NewNode(data, params, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	check("plain_fresh", data, params, fresh)
	_, _, m := midGossipMesh(t)
	defer m.close()
	check("plain_midgossip", data, params, m.nodes[0])
	check("plain_middecrypt", data, params, midDecryptNode(t, m))

	data, params = djSnapshotTestConfig(t)
	check("dj_midgossip", data, params, nil)
	check("dj_middecrypt", data, params, nil)
}

// TestAppendSnapshotAllocations: into a buffer that is big enough, a
// snapshot costs nothing, between iterations, while the node holds a
// push-sum state and while it holds a decrypt window alike — the two
// nested blobs, the float fields, the cipher vectors and the partial
// sets are all written in place.
func TestAppendSnapshotAllocations(t *testing.T) {
	data, params := snapshotTestConfig()
	fresh, err := NewNode(data, params, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	_, _, m := midGossipMesh(t)
	defer m.close()
	_, _, dm := midGossipMesh(t)
	defer dm.close()
	for _, c := range []struct {
		name string
		nd   *Node
		want float64
	}{
		{"between iterations", fresh, 0},
		{"mid-gossip", m.nodes[0], 0},
		{"mid-decrypt", midDecryptNode(t, dm), 0},
	} {
		buf, err := c.nd.AppendSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(50, func() {
			if buf, err = c.nd.AppendSnapshot(buf[:0]); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("%s: AppendSnapshot into a reused buffer allocates %v times, want %v", c.name, got, c.want)
		}
	}
}

// FuzzRestoreNode hardens the snapshot decoder the way the wire
// decoders are hardened: arbitrary bytes must produce an error, never a
// panic or a silently half-restored node.
func FuzzRestoreNode(f *testing.F) {
	data, params := snapshotTestConfig()
	nd, err := NewNode(data, params, 0)
	if err != nil {
		f.Fatal(err)
	}
	snap, err := nd.AppendSnapshot(nil)
	nd.Close()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add(snap[:len(snap)/2])
	f.Add([]byte{})
	// A mid-gossip state, halving exponent above zero — and the same state
	// one halving past the budget, which the decoder refuses.
	_, _, m := midGossipMesh(f)
	mid, err := m.nodes[0].AppendSnapshot(nil)
	if err != nil {
		f.Fatal(err)
	}
	m.nodes[0].pt.diptych.Means.H = m.nodes[0].pt.run.preScale + 1
	over, err := m.nodes[0].AppendSnapshot(nil)
	m.close()
	if err != nil {
		f.Fatal(err)
	}
	// A mid-decrypt state: an opening, partial sets, asked peers and
	// in-flight asks.
	_, _, dm := midGossipMesh(f)
	dec, err := midDecryptNode(f, dm).AppendSnapshot(nil)
	dm.close()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mid)
	f.Add(over)
	f.Add(dec)
	f.Fuzz(func(t *testing.T, b []byte) {
		if nd, err := RestoreNode(data, params, 0, b); err == nil {
			nd.Close()
		}
	})
}

// TestLateSyncCheckpointRestores: a node that late-synchronizes onto a
// newer iteration while asking for partials leaves its decrypt window
// behind, so a checkpoint taken right after carries none — RestoreNode
// refuses a window outside the decrypt phase — and the restored node
// then steps exactly as the original does: the same sends, encoded to
// the same bytes, and the same snapshot after every step.
func TestLateSyncCheckpointRestores(t *testing.T) {
	data, params := snapshotTestConfig()
	nd, err := NewNode(data, params, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	pt := nd.pt
	n := len(data)
	env := &scriptedEnv{id: 0, n: n}
	pt.stepAssign(env, pt.run.newScratch())
	for pt.phase == phaseGossip {
		env.peers, env.next = []p2p.NodeID{1}, 0
		pt.stepGossip(env)
	}
	env.peers, env.next = []p2p.NodeID{1, 2, 3}, 0
	pt.stepDecrypt(env, pt.run.newScratch(), nil)
	if pt.phase != phaseDecrypt || len(pt.window.asks) == 0 {
		t.Fatalf("no ask wave: phase %d, %d asks", pt.phase, len(pt.window.asks))
	}
	q := pt.run.newParticipant(1)
	q.iter = 1
	q.stepAssign(env, q.run.newScratch())
	pt.handleGossips(env, pt.run.newScratch(), messages(&gossipPayload{Iter: 1, Centroids: q.diptych.Centroids, Msg: q.diptych.Means.Emit()}))
	if pt.iter != 1 || pt.phase != phaseGossip {
		t.Fatalf("late sync left iteration %d in phase %d", pt.iter, pt.phase)
	}

	snap, err := nd.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreNode(data, params, 0, snap)
	if err != nil {
		t.Fatalf("restore after a late sync: %v", err)
	}
	defer restored.Close()
	for cycle := 0; !nd.Done() || !restored.Done(); cycle++ {
		if cycle > nd.MaxCycles() {
			t.Fatal("the nodes never finished")
		}
		var sent [2][][]byte
		for i, node := range []*Node{nd, restored} {
			e := &scriptedEnv{id: 0, n: n, cycle: cycle, peers: []p2p.NodeID{1, 2, 3, 2, 3, 1}}
			node.Step(e)
			for _, s := range e.sent {
				b, err := node.EncodePayload(s.payload)
				if err != nil {
					t.Fatal(err)
				}
				sent[i] = append(sent[i], append(binary.BigEndian.AppendUint32(nil, uint32(s.to)), b...))
			}
		}
		if len(sent[0]) != len(sent[1]) {
			t.Fatalf("cycle %d: %d sends vs %d restored", cycle, len(sent[0]), len(sent[1]))
		}
		for i := range sent[0] {
			if !bytes.Equal(sent[0][i], sent[1][i]) {
				t.Fatalf("cycle %d: send %d differs after the restore", cycle, i)
			}
		}
		a, err := nd.AppendSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.AppendSnapshot(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("cycle %d: the restored node's state differs from the original's", cycle)
		}
	}
}
