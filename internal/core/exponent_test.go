package core

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"chiaroscuro/internal/gossip"
	"chiaroscuro/internal/p2p"
	"chiaroscuro/internal/vecpool"
)

// The exponent beside the ciphertext is held against an oracle: push-sum
// as it ran before — contributions pre-scaled by 2^T at encoding, every
// emission an eager CipherSuite.Halve of every ciphertext, nothing
// carrying an exponent. Both are driven through the same schedule on the
// same cleartext contributions, both are opened by the same threshold
// decryption, and the signed fixed-point integer that reaches
// codec.Decode must be the same integer for every coordinate.

// oracleState is the eager push-sum accumulator.
type oracleState struct {
	v []Cipher
	w float64
}

func (o *oracleState) emit(t *testing.T, s CipherSuite) *oracleState {
	t.Helper()
	out := &oracleState{v: make([]Cipher, len(o.v))}
	for i, c := range o.v {
		h, err := s.Halve(c)
		if err != nil {
			t.Fatal(err)
		}
		o.v[i], out.v[i] = h, h
	}
	o.w /= 2
	out.w = o.w
	return out
}

func (o *oracleState) absorb(t *testing.T, s CipherSuite, ms ...*oracleState) {
	t.Helper()
	for _, m := range ms {
		for i := range o.v {
			sum, err := s.Add(o.v[i], m.v[i])
			if err != nil {
				t.Fatal(err)
			}
			o.v[i] = sum
		}
	}
	for _, m := range ms {
		o.w += m.w
	}
}

// oracleEncrypt is the pre-exponent encoding of a perturbed
// contribution: every coordinate is its value's and its noise share's
// encodings added, and carries its 2^T inside the plaintext.
func oracleEncrypt(t *testing.T, r *runShared, vals, noises []float64) []Cipher {
	t.Helper()
	enc := make([]*big.Int, len(vals))
	for i := range vals {
		v, err := r.codec.Encode(vals[i])
		if err != nil {
			t.Fatal(err)
		}
		e, err := r.codec.Encode(noises[i])
		if err != nil {
			t.Fatal(err)
		}
		enc[i] = v.Lsh(v.Add(v, e), r.preScale)
	}
	out := make([]Cipher, r.sideCiphers)
	for g, m := range packWide(t, r, enc) {
		ct, err := r.suite.Encrypt(m)
		if err != nil {
			t.Fatal(err)
		}
		out[g] = ct
	}
	return out
}

// oracleNode is one participant driven both ways.
type oracleNode struct {
	pt    *participant
	lazy  *gossip.State[Cipher]
	eager *oracleState
}

type oracleFlight struct {
	lazy  *gossip.Message[Cipher]
	eager *oracleState
}

// oracleHarness is a population of oracleNodes over one bound run.
type oracleHarness struct {
	t     *testing.T
	r     *runShared
	rng   *rand.Rand
	nodes []*oracleNode
	held  [][]oracleFlight // per destination
	fresh int              // contributions minted so far (headroom budget)
}

func newOracleHarness(t *testing.T, cfg oracleConfig, seed int64) *oracleHarness {
	t.Helper()
	// The run is sized for 8 contributions; 4 nodes are driven, so up to
	// 4 late synchronizations can mint a fresh contribution while the
	// abandoned one still circulates without breaching the headroom the
	// run was validated for.
	r := openTestRun(t, blobs(8, 3, 2), cfg.params)
	if cfg.perCoord {
		swapPerCoordinate(t, r)
	}
	h := &oracleHarness{t: t, r: r, rng: rand.New(rand.NewSource(seed)), held: make([][]oracleFlight, 4)}
	for i := 0; i < 4; i++ {
		n := &oracleNode{pt: r.newParticipant(p2p.NodeID(i))}
		h.contribute(n)
		h.nodes = append(h.nodes, n)
	}
	return h
}

// contribute (re)builds a node's state from a fresh random contribution:
// values over the data domain, the inertia aggregate up to its own
// bound, and noise shares of both signs up to the clamp.
func (h *oracleHarness) contribute(n *oracleNode) {
	h.t.Helper()
	r := h.r
	h.fresh++
	vals := make([]float64, r.sideLen)
	noises := make([]float64, r.sideLen)
	for i := range vals {
		vals[i] = h.rng.Float64() * r.params.MaxValue
		noises[i] = (2*h.rng.Float64() - 1) * r.noiseBound
	}
	if r.params.TrackInertia {
		vals[r.sideLen-1] = h.rng.Float64() * float64(r.dim) * r.params.MaxValue * r.params.MaxValue
	}
	noises[0] = -r.noiseBound // the extremes, always
	noises[1] = r.noiseBound
	n.eager = &oracleState{v: oracleEncrypt(h.t, r, vals, noises), w: 1}
	values, err := n.pt.encryptSide(r.newScratch(), vals, noises)
	if err != nil {
		h.t.Fatal(err)
	}
	if n.lazy, err = gossip.NewState[Cipher](r.ring, values, 1); err != nil {
		h.t.Fatal(err)
	}
}

// emit is stepGossip's emission: the exponent's halving plus the refresh
// of the copy that leaves, held in flight toward `to`.
func (h *oracleHarness) emit(from, to int) {
	h.t.Helper()
	n := h.nodes[from]
	if n.lazy.H >= h.r.preScale {
		return // the budget guard: a node never halves past T
	}
	msg := n.lazy.Emit() // fresh storage: flights are held arbitrarily long
	for _, c := range msg.V {
		if err := h.r.suite.RefreshInPlace(c); err != nil {
			h.t.Fatal(err)
		}
	}
	h.held[to] = append(h.held[to], oracleFlight{msg, n.eager.emit(h.t, h.r.suite)})
}

// deliver absorbs the held flights idx of node `to`, as one batch when
// there are several.
func (h *oracleHarness) deliver(to int, idx ...int) {
	h.t.Helper()
	n := h.nodes[to]
	ms := make([]*gossip.Message[Cipher], len(idx))
	es := make([]*oracleState, len(idx))
	for k, i := range idx {
		ms[k], es[k] = h.held[to][i].lazy, h.held[to][i].eager
	}
	keep := h.held[to][:0]
	for i, f := range h.held[to] {
		taken := false
		for _, j := range idx {
			taken = taken || i == j
		}
		if !taken {
			keep = append(keep, f)
		}
	}
	h.held[to] = keep
	if _, err := n.lazy.AbsorbAll(ms, nil); err != nil {
		h.t.Fatal(err)
	}
	n.eager.absorb(h.t, h.r.suite, es...)
}

// open runs step 2c and the threshold decryption on a push-sum vector
// and returns the opened plaintexts.
func (h *oracleHarness) open(vals []Cipher) []*big.Int {
	h.t.Helper()
	return openAll(h.t, h.r, openingOf(vals))
}

// check opens every node both ways and requires the same signed integer
// (and hence the same disclosed float) for every coordinate.
func (h *oracleHarness) check(label string) {
	h.t.Helper()
	r := h.r
	for id, n := range h.nodes {
		if n.lazy.W != n.eager.w {
			h.t.Fatalf("%s node %d: weight %v, oracle %v", label, id, n.lazy.W, n.eager.w)
		}
		if n.lazy.H > r.preScale {
			h.t.Fatalf("%s node %d: exponent %d over the budget %d on an honest schedule", label, id, n.lazy.H, r.preScale)
		}
		got, err := r.signedAggregates(r.newScratch(), h.open(n.lazy.Values()), n.lazy.H, n.lazy.W)
		if err != nil {
			h.t.Fatalf("%s node %d (h=%d): %v", label, id, n.lazy.H, err)
		}
		// The oracle's plaintexts are what they are: no shift left to do.
		want, err := r.signedAggregates(r.newScratch(), h.open(n.eager.v), r.preScale, n.eager.w)
		if err != nil {
			h.t.Fatalf("%s node %d: oracle: %v", label, id, err)
		}
		if len(got) != r.sideLen || len(want) != r.sideLen {
			h.t.Fatalf("%s node %d: %d and %d coordinates, want %d", label, id, len(got), len(want), r.sideLen)
		}
		denom := n.lazy.W * math.Ldexp(1, int(r.preScale))
		for i := range want {
			if got[i].Cmp(want[i]) != 0 {
				h.t.Fatalf("%s node %d coordinate %d (h=%d): %v, oracle %v", label, id, i, n.lazy.H, got[i], want[i])
			}
			g, gerr := n.pt.run.decodeSigned(got[i], denom, i)
			w, werr := n.pt.run.decodeSigned(want[i], denom, i)
			if (gerr == nil) != (werr == nil) || math.Float64bits(g) != math.Float64bits(w) {
				h.t.Fatalf("%s node %d coordinate %d: disclosed %v (%v), oracle %v (%v)", label, id, i, g, gerr, w, werr)
			}
		}
	}
}

// oracleConfig is one shape the exponent is held to the oracle on: a
// run's own packing ("-packed"), or one coordinate per ciphertext.
type oracleConfig struct {
	params   Params
	perCoord bool
}

func oracleConfigs() map[string]oracleConfig {
	base := Params{K: 2, Epsilon: 100, Iterations: 1, Seed: 3, GossipRounds: 6, DecryptThreshold: 3, TrackInertia: true}
	out := map[string]oracleConfig{}
	for name, backend := range map[string]Params{
		"plain": {Backend: BackendPlainAccounted},
		"dj128": {Backend: BackendDamgardJurik, ModulusBits: 128},
		"dj256": {Backend: BackendDamgardJurik, ModulusBits: 256},
	} {
		p := base
		p.Backend, p.ModulusBits = backend.Backend, backend.ModulusBits
		out[name] = oracleConfig{params: p, perCoord: true}
		out[name+"-packed"] = oracleConfig{params: p}
	}
	return out
}

// TestExponentSharesMatchEagerOracle is the exactness property of the
// exponent representation: random emit / absorb / batched-absorb / late-synchronization
// schedules, exponent skew from 0 to T in both directions, both suites
// (Damgård–Jurik at 128 and 256 bits), packed and one coordinate per
// ciphertext, the inertia
// aggregate tracked, noise shares of both signs — and after every phase
// each node discloses the integer the eager oracle discloses.
func TestExponentSharesMatchEagerOracle(t *testing.T) {
	for name, cfg := range oracleConfigs() {
		t.Run(name, func(t *testing.T) {
			h := newOracleHarness(t, cfg, 17)
			T := int(h.r.preScale)

			// Skew at its limits first: node 0 emits the whole budget
			// at node 1, which absorbs the last flight while still at
			// exponent 0 (the state doubles itself T times), then the
			// first (the message is doubled T−1 times), then the rest
			// as one batch.
			for k := 0; k < T; k++ {
				h.emit(0, 1)
			}
			h.emit(0, 1) // guarded: the budget is spent
			if got := len(h.held[1]); got != T {
				t.Fatalf("%d flights after T+1 emissions, want %d", got, T)
			}
			h.deliver(1, T-1)
			if h.nodes[1].lazy.H != uint(T) {
				t.Fatalf("exponent %d after absorbing h=T into a fresh state", h.nodes[1].lazy.H)
			}
			h.deliver(1, 0)
			rest := make([]int, len(h.held[1]))
			for i := range rest {
				rest[i] = i
			}
			h.deliver(1, rest...)
			h.check("skew-T")

			// Then a random schedule with late synchronizations.
			for step := 0; step < 40; step++ {
				i := h.rng.Intn(len(h.nodes))
				switch op := h.rng.Intn(4); {
				case op == 0:
					for k := 1 + h.rng.Intn(3); k > 0; k-- {
						j := h.rng.Intn(len(h.nodes) - 1)
						if j >= i {
							j++
						}
						h.emit(i, j)
					}
				case op == 1 && len(h.held[i]) > 0:
					h.deliver(i, h.rng.Intn(len(h.held[i])))
				case op == 2 && len(h.held[i]) > 1:
					all := make([]int, len(h.held[i]))
					for k := range all {
						all[k] = k
					}
					h.deliver(i, all...)
				case op == 3 && len(h.held[i]) > 0 && h.fresh < 8:
					// Late synchronization: the state is rebuilt from
					// a fresh contribution, then absorbs the message
					// that triggered it.
					h.contribute(h.nodes[i])
					h.deliver(i, h.rng.Intn(len(h.held[i])))
				}
			}
			h.check("random")
		})
	}
}

// TestHalvingBudgetBoundary closes the exponent at the headroom limit: a
// share halved exactly T times still discloses the oracle's value; one
// halved T+1 times has no exact value, and is refused by name — by the
// decoder, by the sender's guard, by the receiver's drop and by the wire
// validation — never disclosed wrong.
func TestHalvingBudgetBoundary(t *testing.T) {
	for name, cfg := range oracleConfigs() {
		if cfg.params.ModulusBits == 256 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			h := newOracleHarness(t, cfg, 29)
			r := h.r
			n := h.nodes[0]
			for n.lazy.H < r.preScale {
				h.emit(0, 1)
			}
			h.check("h=T")

			// One more halving, forced past the guard.
			n.lazy.Emit()
			if _, err := r.signedAggregates(r.newScratch(), h.open(n.lazy.Values()), n.lazy.H, n.lazy.W); !errors.Is(err, errHalvingBudget) {
				t.Fatalf("h=T+1 decoded with %v, want errHalvingBudget", err)
			}
		})
	}
}

// budgetParticipant is a participant mid-gossip whose push-sum state
// has been halved h times.
func budgetParticipant(t *testing.T, params Params, h uint) (*runShared, *participant, *scriptedEnv) {
	t.Helper()
	r := openTestRun(t, blobs(8, 3, 2), params)
	pt := r.newParticipant(0)
	env := &scriptedEnv{id: 0, n: 8, peers: []p2p.NodeID{1, 2, 3, 4, 5, 6, 7, 1, 2, 3, 4, 5, 6, 7}}
	pt.stepAssign(env, pt.run.newScratch())
	for pt.diptych.Means.H < h {
		pt.diptych.Means.Emit()
	}
	return r, pt, env
}

// TestHalvingBudgetFailsTheIteration drives the participant state
// machine itself over the limit: with its share at T+1 the iteration is
// recorded DecryptFailed and the centroids stay put; at T it discloses.
func TestHalvingBudgetFailsTheIteration(t *testing.T) {
	params := Params{K: 2, Epsilon: 100, Iterations: 2, Seed: 3, GossipRounds: 6, DecryptThreshold: 3}
	for _, over := range []uint{0, 1} {
		r, pt, env := budgetParticipant(t, params, 0)
		for pt.diptych.Means.H < r.preScale+over {
			pt.diptych.Means.Emit()
		}
		pt.phase = phaseDecrypt
		pt.window.open()
		pt.stepDecrypt(env, pt.run.newScratch(), nil) // step 2c: freezes the opening, asks
		var responses []p2p.Message
		for share := 2; share < 2+r.suite.Threshold(); share++ {
			parts := make([]Partial, len(pt.window.req.Ciphers))
			for i, c := range pt.window.req.Ciphers {
				p, err := r.suite.PartialDecrypt(share, c)
				if err != nil {
					t.Fatal(err)
				}
				parts[i] = p
			}
			responses = append(responses, p2p.Message{From: p2p.NodeID(share - 1), Payload: &decryptResponse{Iter: 0, Partials: parts}})
		}
		before := vecpool.CloneRows(pt.diptych.Centroids)
		pt.stepDecrypt(env, pt.run.newScratch(), responses)
		if len(pt.history) != 1 {
			t.Fatalf("h=T+%d: %d iterations recorded, want 1", over, len(pt.history))
		}
		rec := pt.history[0]
		if rec.DecryptFailed != (over == 1) || pt.decryptFail != int(over) {
			t.Fatalf("h=T+%d: DecryptFailed=%v (failures %d)", over, rec.DecryptFailed, pt.decryptFail)
		}
		if over == 1 {
			if maxDisplacement(before, rec.PerturbedCentroids) != 0 {
				t.Fatal("a failed iteration moved the centroids")
			}
			for _, c := range rec.PerturbedCounts {
				if c != 0 {
					t.Fatalf("a failed iteration disclosed counts %v", rec.PerturbedCounts)
				}
			}
		}
	}
}

// TestHalvingBudgetGuards pins the three places an over-budget exponent
// is stopped before it can cost anything: the sender does not halve past
// T, the receiver drops what claims to have been, and the share check
// (the daemon's decoder, a byzantine plan's receivers) rejects it.
func TestHalvingBudgetGuards(t *testing.T) {
	params := Params{K: 2, Epsilon: 100, Iterations: 2, Seed: 3, GossipRounds: 6, DecryptThreshold: 3}
	r, pt, env := budgetParticipant(t, params, 0)
	T := r.preScale

	// Sender: at T−1 it still emits (to exactly T), at T it does not.
	for pt.diptych.Means.H < T-1 {
		pt.diptych.Means.Emit()
	}
	pt.stepGossip(env)
	if len(env.sent) != 1 || env.sent[0].payload.(*gossipPayload).Msg.H != T {
		t.Fatalf("at T-1: sent %d payloads", len(env.sent))
	}
	w := pt.diptych.Means.W
	pt.stepGossip(env)
	if len(env.sent) != 1 || pt.diptych.Means.H != T || pt.diptych.Means.W != w {
		t.Fatalf("at T: sent %d payloads, state (h=%d, w=%v), want the share held back whole", len(env.sent), pt.diptych.Means.H, pt.diptych.Means.W)
	}
	if pt.roundsDone != 2 {
		t.Fatalf("rounds done %d, want 2: a held-back round still counts", pt.roundsDone)
	}

	// Receiver: same-iteration and late-sync messages over the budget are
	// stale drops; the state and the iteration do not move.
	_, peer, _ := budgetParticipant(t, params, 1)
	over := *peer.diptych.Means.Emit()
	over.H = T + 1
	drops, h := pt.staleDrops, pt.diptych.Means.H
	pt.handleGossips(env, pt.run.newScratch(), messages(
		&gossipPayload{Iter: 0, Centroids: pt.diptych.Centroids, Msg: &over},
		&gossipPayload{Iter: 1, Centroids: pt.diptych.Centroids, Msg: &over},
	))
	if pt.staleDrops != drops+2 || pt.diptych.Means.H != h || pt.diptych.Means.W != w || pt.iter != 0 {
		t.Fatalf("over-budget messages: %d drops, state (h=%d, w=%v), iter %d", pt.staleDrops-drops, pt.diptych.Means.H, pt.diptych.Means.W, pt.iter)
	}

	// The share check, honest and hostile.
	for _, hostile := range []bool{false, true} {
		if err := r.checkShare(over.W, T, over.V, hostile); err != nil {
			t.Fatalf("hostile=%v: checkShare rejected an exponent at the budget: %v", hostile, err)
		}
		if r.checkShare(over.W, T+1, over.V, hostile) == nil {
			t.Fatalf("hostile=%v: checkShare accepted an exponent over the budget", hostile)
		}
	}
}

// TestRunNeverHalvesEagerly: a full run on either backend performs every
// halving by the exponent. OpCounts.Halvings counts halvings however
// performed and Refreshes the exponent's, so their difference is the
// number of eager CipherSuite.Halve calls — zero — and each of the
// n·iterations·rounds emissions refreshed exactly its sideCiphers-long
// vector.
func TestRunNeverHalvesEagerly(t *testing.T) {
	data := blobs(10, 3, 2)
	for name, p := range map[string]Params{
		"plain": {K: 2, Epsilon: 100, Iterations: 2, Seed: 5, GossipRounds: 6, DecryptThreshold: 3},
		"dj": {K: 2, Epsilon: 100, Iterations: 2, Seed: 5, GossipRounds: 6, DecryptThreshold: 3,
			Backend: BackendDamgardJurik, ModulusBits: 128},
	} {
		tr, err := Run(data, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if eager := tr.Ops.Halvings - tr.Ops.Refreshes; eager != 0 {
			t.Fatalf("%s: %d eager halvings on a run path (%+v)", name, eager, tr.Ops)
		}
		vector := int64(openTestRun(t, data, p).sideCiphers)
		if want := int64(len(data)*p.Iterations*p.GossipRounds) * vector; tr.Ops.Refreshes != want {
			t.Fatalf("%s: %d refreshes, want %d: one per emission of the %d-cipher vector", name, tr.Ops.Refreshes, want, vector)
		}
		if tr.DecryptFailures != 0 {
			t.Fatalf("%s: %d decrypt failures", name, tr.DecryptFailures)
		}
	}
}
