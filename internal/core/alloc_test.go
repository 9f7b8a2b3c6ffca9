package core

import (
	"testing"

	"chiaroscuro/internal/compactrng"
	"chiaroscuro/internal/datasets"
	"chiaroscuro/internal/p2p"
	"chiaroscuro/internal/simnet"
)

// allocTestParams is a configuration whose first iteration holds every
// participant in the gossip phase long enough to warm all amortized
// buffers and then measure pure steady-state cycles.
func allocTestParams(rounds int) Params {
	return Params{
		K: 2, Epsilon: 50, Iterations: 1, Seed: 11,
		GossipRounds: rounds, DecryptThreshold: 3,
	}
}

func allocTestData(t testing.TB, n int) [][]float64 {
	t.Helper()
	d, err := datasets.CER(datasets.CEROptions{N: n, Dim: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range d.Series {
		for i, v := range s {
			s[i] = v / 8 // generator kW values into [0,1]
			if s[i] > 1 {
				s[i] = 1
			}
		}
	}
	return d.Series
}

// TestGossipCycleZeroAlloc is the ISSUE 5 acceptance gate: on the
// accounted backend, a warmed steady-state gossip cycle — all
// participants' halve-and-emit plus batched absorbs, across the whole
// simulated network — performs zero heap allocations, proven with
// testing.AllocsPerRun. The run is deterministic (fixed seed), so the
// buffer capacities the warm-up grows are the ones the measured window
// needs.
func TestGossipCycleZeroAlloc(t *testing.T) {
	const n, warm, measure = 48, 40, 40
	data := allocTestData(t, n)
	p := allocTestParams(warm + measure + 8)
	rs, err := prepareRun(data, p)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.close()
	if rs.shared.mut == nil {
		t.Fatal("accounted fault-free run must qualify for the in-place hot path")
	}
	rs.shared.batchHint = n
	d, err := newCycleDriver(data, rs, 1, len(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < warm+1; i++ { // cycle 0 = assignment, then gossip
		d.nw.RunCycle()
	}
	for _, pt := range d.participants {
		if pt.phase != phaseGossip {
			t.Fatalf("participant %d not in gossip phase after warm-up", pt.id)
		}
	}
	allocs := testing.AllocsPerRun(measure, func() {
		d.nw.RunCycle()
	})
	if allocs != 0 {
		t.Fatalf("steady-state gossip cycle allocates %.2f heap objects (network-wide, n=%d), want 0", allocs, n)
	}
	for _, pt := range d.participants {
		if pt.phase != phaseGossip {
			t.Fatalf("participant %d left the gossip phase during measurement", pt.id)
		}
	}
}

// TestGossipCycleZeroAllocPacked re-proves the property with slot
// packing on: the packed hot path shares the same arena machinery.
func TestGossipCycleZeroAllocPacked(t *testing.T) {
	const n, warm, measure = 48, 40, 40
	data := allocTestData(t, n)
	p := allocTestParams(warm + measure + 8)
	p.Packed = true
	rs, err := prepareRun(data, p)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.close()
	rs.shared.batchHint = n
	d, err := newCycleDriver(data, rs, 1, len(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < warm+1; i++ {
		d.nw.RunCycle()
	}
	allocs := testing.AllocsPerRun(measure, func() {
		d.nw.RunCycle()
	})
	if allocs != 0 {
		t.Fatalf("steady-state packed gossip cycle allocates %.2f heap objects, want 0", allocs)
	}
}

// TestMeasureGossipAllocs exercises the CLI/CI measurement helper and
// requires it to agree with the AllocsPerRun proof (zero on the hot
// path) and to reject windows that would leak out of the gossip phase.
func TestMeasureGossipAllocs(t *testing.T) {
	data := allocTestData(t, 32)
	rep, err := MeasureGossipAllocs(data, allocTestParams(64), 25, 25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AllocsPerCycle != 0 {
		t.Fatalf("MeasureGossipAllocs reports %.2f allocs/cycle on the hot path, want 0", rep.AllocsPerCycle)
	}
	if rep.Population != 32 || rep.Cycles != 25 {
		t.Fatalf("report shape = %+v", rep)
	}
	if _, err := MeasureGossipAllocs(data, allocTestParams(10), 25, 25); err == nil {
		t.Fatal("window longer than the gossip phase must be rejected")
	}
	if _, err := MeasureGossipAllocs(data, allocTestParams(64), 0, 5); err == nil {
		t.Fatal("empty warm-up must be rejected")
	}
}

// TestAsyncInboxZeroAlloc proves the async message fabric itself is
// allocation-free once warm: sends land in the fixed ring, drains reuse
// the env's pre-sized buffer, and no channel element churn remains. The
// proof deliberately scopes to the fabric (send + drain), not whole
// async participant activations — the async engine disables the
// in-place gossip hot path by design, so its steps allocate.
func TestAsyncInboxZeroAlloc(t *testing.T) {
	const n, capEach = 8, 64
	net := &asyncNet{inboxes: make([]*asyncInbox, n)}
	for i := range net.inboxes {
		net.inboxes[i] = newAsyncInbox(capEach)
	}
	envs := make([]*asyncEnv, n)
	for i := range envs {
		envs[i] = &asyncEnv{
			net:   net,
			id:    p2p.NodeID(i),
			rng:   compactrng.NewRand(int64(i) + 5),
			drain: make([]p2p.Message, 0, capEach),
		}
	}
	payload := &gossipPayload{} // pointer payload: interface boxing is free
	cycle := func() {
		for _, e := range envs {
			for k := 0; k < 4; k++ {
				peer, ok := e.RandomPeer()
				if !ok {
					t.Fatal("no peer")
				}
				if err := e.Send(peer, payload, 16); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, e := range envs {
			for range e.Inbox() {
			}
		}
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("warmed async send+drain cycle allocates %.2f heap objects (fabric-wide, n=%d), want 0", allocs, n)
	}
	if net.dropped.Load() != 0 {
		t.Fatalf("ring overflow during measurement: %d drops", net.dropped.Load())
	}
}

// TestAsyncInboxOverflow pins the saturated-peer semantics: a full ring
// rejects the push and the sender counts the drop, exactly like the
// buffered channel it replaced.
func TestAsyncInboxOverflow(t *testing.T) {
	ib := newAsyncInbox(2)
	m := p2p.Message{Bytes: 1}
	if !ib.push(m) || !ib.push(m) {
		t.Fatal("pushes under capacity must succeed")
	}
	if ib.push(m) {
		t.Fatal("push into a full ring must fail")
	}
	got := ib.drainInto(nil)
	if len(got) != 2 {
		t.Fatalf("drained %d messages, want 2", len(got))
	}
	if !ib.push(m) {
		t.Fatal("push after drain must succeed (ring wrapped)")
	}
}

// TestMeasureDecryptAllocs exercises the decrypt-phase counterpart of
// the measurement helper: a complete small run must classify at least
// one cycle as decrypt-dominant and report a finite per-cycle average —
// and at the shape bench/ reports as core.decrypt_allocs_per_cycle
// (N=512, K=2, ε=50, 2 iterations, 12 rounds, threshold 8) the figure
// must stay under the recorded ceiling. Unlike the gossip hot path it is
// not zero (quorum assembly and Combine allocate), so the gate is the
// recorded 22,528 allocs/cycle with 30% headroom.
func TestMeasureDecryptAllocs(t *testing.T) {
	const ceiling = 22528 * 1.30
	for _, tc := range []struct {
		n       int
		p       Params
		ceiling float64 // 0 = shape checks only
	}{
		{24, Params{K: 2, Epsilon: 50, Iterations: 1, Seed: 11, GossipRounds: 6, DecryptThreshold: 3}, 0},
		{512, Params{K: 2, Epsilon: 50, Iterations: 2, Seed: 11, GossipRounds: 12, DecryptThreshold: 8}, ceiling},
	} {
		rep, err := MeasureDecryptAllocs(allocTestData(t, tc.n), tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if rep.DecryptCycles < 1 {
			t.Fatalf("n=%d: no decrypt-classified cycles in report %+v", tc.n, rep)
		}
		if rep.Population != tc.n {
			t.Fatalf("report population = %d, want %d", rep.Population, tc.n)
		}
		if rep.AllocsPerCycle < 0 || rep.BytesPerCycle < 0 {
			t.Fatalf("n=%d: negative averages in report %+v", tc.n, rep)
		}
		if tc.ceiling > 0 {
			t.Logf("n=%d: %.0f allocs/cycle over %d decrypt cycles (ceiling %.0f)", tc.n, rep.AllocsPerCycle, rep.DecryptCycles, tc.ceiling)
			if rep.AllocsPerCycle > tc.ceiling {
				t.Errorf("n=%d: decrypt phase allocates %.0f objects/cycle, ceiling is %.0f", tc.n, rep.AllocsPerCycle, tc.ceiling)
			}
		}
	}
}

// TestHotPathGateMatrix pins when the in-place hot path may engage:
// never with a fault plan (delays and stalls break the message-
// consumption bound the emit double-buffering relies on), never on the
// async engine, never on the real backend. Where it does engage it is
// an allocation profile, not a second protocol: the same run with the
// path forced off discloses the same trace and counts the same
// operations — encrypts, adds, the exponent's halvings, the doublings
// that align skewed exponents (in place on one side, into fresh values
// on the other) and the sent-copy refreshes.
func TestHotPathGateMatrix(t *testing.T) {
	data := allocTestData(t, 16)
	base := allocTestParams(12)
	base.DecryptThreshold = 3
	base.Iterations = 3

	run := func(name string, p Params, classic bool) *Trace {
		t.Helper()
		rs, err := prepareRun(data, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer rs.close()
		if classic {
			rs.shared.mut = nil
		}
		d, err := newCycleDriver(data, rs, 1, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr, err := d.run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return tr
	}
	check := func(name string, mutate func(*Params), want bool) {
		t.Helper()
		p := base
		mutate(&p)
		rs, err := prepareRun(data, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer rs.close()
		if got := rs.shared.mut != nil; got != want {
			t.Errorf("%s: hot path enabled = %v, want %v", name, got, want)
		}
		if !want {
			return
		}
		hot, classic := run(name, p, false), run(name, p, true)
		assertTracesBitIdentical(t, hot, classic, name+": in-place vs classic")
		if hot.Ops != classic.Ops {
			t.Errorf("%s: in-place path counted %+v, classic %+v", name, hot.Ops, classic.Ops)
		}
		if hot.Ops.Refreshes == 0 || hot.Ops.Halvings != hot.Ops.Refreshes {
			t.Errorf("%s: %+v, want every halving the exponent's", name, hot.Ops)
		}
		if churn := p.ChurnCrashProb > 0; churn != (hot.Ops.Doublings > 0) {
			t.Errorf("%s: %d doublings, want them exactly when churn skews the exponents", name, hot.Ops.Doublings)
		}
	}
	check("plain fault-free", func(p *Params) {}, true)
	check("plain with churn", func(p *Params) { p.ChurnCrashProb = 0.01; p.ChurnRejoinProb = 0.2 }, true)
	check("async engine", func(p *Params) { p.asyncEngine = true }, false)
	check("fault plan", func(p *Params) {
		pl, err := simnet.ParsePlan("drop=0.1")
		if err != nil {
			t.Fatal(err)
		}
		p.Faults = pl
	}, false)
	check("damgard-jurik", func(p *Params) {
		p.Backend = BackendDamgardJurik
		p.ModulusBits = 256
	}, false)
}
