package core

import (
	"math"
	"math/big"
	"testing"

	"chiaroscuro/internal/p2p"
	"chiaroscuro/internal/simnet"
)

// faults_test.go is the adversarial scenario suite of the simnet layer:
// every scenario is a replayable spec string (internal/simnet grammar),
// run through the invariant checker below. The acceptance bar is the
// ISSUE-4 contract: identical seed + fault plan ⇒ bit-identical
// disclosures at any worker count, and byzantine inputs are rejected or
// survived — never a panic.

func mustPlan(t *testing.T, spec string) *simnet.Plan {
	t.Helper()
	p, err := simnet.ParsePlan(spec)
	if err != nil {
		t.Fatalf("plan %q: %v", spec, err)
	}
	return p
}

// checkTraceInvariants verifies the properties every fault scenario must
// preserve, whatever the plan throws at the protocol:
//
//   - liveness: somebody completed at least one full iteration (the
//     trace exists at all), and Completed stays within the population;
//   - privacy-budget conservation: the accountant never spends beyond
//     the global ε, and disclosures match the recorded iterations —
//     faults may waste budget (failed iterations still disclose) but
//     can never mint extra;
//   - disclosure sanity: every disclosed centroid coordinate is finite
//     and inside the clamped [0, MaxValue] domain, with exactly the
//     configured shape (a byzantine sender must not be able to smuggle
//     NaN or out-of-domain values into anyone's disclosure).
func checkTraceInvariants(t *testing.T, tr *Trace, p Params, n int, label string) {
	t.Helper()
	if len(tr.Iterations) == 0 {
		t.Fatalf("%s: no iterations completed", label)
	}
	if tr.Completed < 0 || tr.Completed > n {
		t.Fatalf("%s: Completed=%d outside [0,%d]", label, tr.Completed, n)
	}
	if tr.Privacy.Spent > p.Epsilon*(1+1e-9) {
		t.Fatalf("%s: budget overspent: %v > %v", label, tr.Privacy.Spent, p.Epsilon)
	}
	if tr.Privacy.Spends != len(tr.Iterations) {
		t.Fatalf("%s: %d disclosures vs %d iterations", label, tr.Privacy.Spends, len(tr.Iterations))
	}
	maxV := p.MaxValue
	if maxV == 0 {
		maxV = 1
	}
	for i, it := range tr.Iterations {
		if len(it.PerturbedCentroids) != p.K || len(it.PerturbedCounts) != p.K {
			t.Fatalf("%s: iteration %d has %d centroids / %d counts, want %d",
				label, i, len(it.PerturbedCentroids), len(it.PerturbedCounts), p.K)
		}
		for j, c := range it.PerturbedCentroids {
			for tt, v := range c {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < -1e-9 || v > maxV+1e-9 {
					t.Fatalf("%s: iteration %d centroid %d[%d] = %v outside [0,%v]",
						label, i, j, tt, v, maxV)
				}
			}
		}
	}
	for j, c := range tr.FinalCentroids {
		for tt, v := range c {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: final centroid %d[%d] = %v", label, j, tt, v)
			}
		}
	}
	if tr.NetStats.FaultDrops > tr.NetStats.MessagesDropped {
		t.Fatalf("%s: fault drops %d exceed total drops %d",
			label, tr.NetStats.FaultDrops, tr.NetStats.MessagesDropped)
	}
}

// TestFaultPlanPassThroughBitIdentical: a plan whose faults never
// trigger (far-future windows) activates the scheduler machinery but
// must not perturb the trajectory at all.
func TestFaultPlanPassThroughBitIdentical(t *testing.T) {
	data := blobs(80, 4, 3)
	base := Params{K: 3, Epsilon: 5, Iterations: 3, Seed: 7}
	ref, err := Run(data, base)
	if err != nil {
		t.Fatal(err)
	}
	p := base
	p.Faults = mustPlan(t, "lag@1000000+5=0;outage@1000000+5=1")
	got, err := Run(data, p)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesBitIdentical(t, ref, got, "far-future faults")
	if got.NetStats.FaultDrops != 0 || got.NetStats.Delayed != 0 || got.NetStats.Duplicates != 0 {
		t.Fatalf("pass-through plan injected faults: %+v", got.NetStats)
	}
}

// TestFaultScenarioSuite runs the adversarial scenario battery on the
// accounted backend: every scenario must keep the invariants, and the
// scenario-specific expectations (rejections counted, liveness floors)
// must hold. Each spec string is itself the replay recipe.
func TestFaultScenarioSuite(t *testing.T) {
	const n = 60
	data := blobs(n, 4, 3)
	scenarios := []struct {
		name string
		spec string
		// minLive is the minimum fraction of participants that must
		// complete their full schedule under the scenario.
		minLive float64
		// wantRejects demands staleDrops > 0 (byzantine input rejected
		// by the wire hardening rather than absorbed).
		wantRejects bool
	}{
		{name: "message-loss-10pct", spec: "drop=0.1", minLive: 0.9},
		{name: "chaos-link", spec: "drop=0.15;dup=0.1;delay=0.3x4", minLive: 0.8},
		{name: "crash-stop-early", spec: "crash@2=0,1,2,3,4,5", minLive: 0.8},
		{name: "outage-transient", spec: "outage@4+6=6,7,8,9", minLive: 0.9},
		{name: "outage-state-loss", spec: "outage@4+6=6,7,8,9:reset", minLive: 0.8},
		{name: "laggards", spec: "lag@2+10=10,11,12,13,14", minLive: 0.9},
		{name: "byz-garble", spec: "garble=20,21", minLive: 0.8},
		{name: "byz-malform", spec: "malform=22,23", minLive: 0.8, wantRejects: true},
		{name: "byz-replay", spec: "replay=24", minLive: 0.8},
		{name: "byz-noise-freeride", spec: "noise*0=25,26", minLive: 0.9},
		{name: "byz-noise-poison", spec: "noise*40=27", minLive: 0.8},
		{name: "kitchen-sink",
			spec:    "drop=0.05;dup=0.05;delay=0.2x3;crash@6=0,1;outage@3+5=2,3:reset;lag@2+6=4,5;garble=40;malform=41;replay=42;noise*20=43",
			minLive: 0.6, wantRejects: true},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			p := Params{K: 3, Epsilon: 50, Iterations: 3, Seed: 11, Faults: mustPlan(t, sc.spec)}
			tr, err := Run(data, p)
			if err != nil {
				t.Fatalf("scenario %q: %v", sc.spec, err)
			}
			checkTraceInvariants(t, tr, p, n, sc.name)
			if live := float64(tr.Completed) / float64(n); live < sc.minLive {
				t.Fatalf("scenario %q: liveness %.2f below %.2f (completed %d/%d)",
					sc.spec, live, sc.minLive, tr.Completed, n)
			}
			if sc.wantRejects && tr.StaleDrops == 0 {
				t.Fatalf("scenario %q: expected byzantine rejections, staleDrops=0", sc.spec)
			}
		})
	}
}

// TestFaultScenariosBitIdenticalAcrossWorkers is the determinism half
// of the acceptance contract: identical seed + fault plan must yield
// bit-identical disclosed centroids across the sequential and sharded
// engines at any worker count — making every scenario above a
// replayable regression test. Repeating the sequential run also proves
// same-process replay.
func TestFaultScenariosBitIdenticalAcrossWorkers(t *testing.T) {
	data := blobs(60, 4, 3)
	spec := "drop=0.1;dup=0.05;delay=0.25x3;crash@6=0;outage@3+5=1,2:reset;lag@2+6=3,4;garble=40;malform=41;replay=42;noise*20=43"
	base := Params{K: 3, Epsilon: 50, Iterations: 3, Seed: 23, Faults: mustPlan(t, spec)}

	ref, err := Run(data, base)
	if err != nil {
		t.Fatal(err)
	}
	if ref.NetStats.FaultDrops == 0 || ref.NetStats.Delayed == 0 || ref.NetStats.Duplicates == 0 {
		t.Fatalf("scenario injected nothing: %+v", ref.NetStats)
	}
	again, err := Run(data, base)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesBitIdentical(t, ref, again, "replay")

	for _, workers := range []int{1, 3, 16} {
		p := base
		p.Workers = workers
		sh, err := Run(data, p)
		if err != nil {
			t.Fatal(err)
		}
		assertTracesBitIdentical(t, ref, sh, "faulted workers="+itoa(workers))
		if ref.Ops != sh.Ops {
			t.Fatalf("workers=%d: op counts %+v vs %+v", workers, ref.Ops, sh.Ops)
		}
	}
}

// TestFaultsComposeWithChurnDeterministically: probabilistic churn and
// a scheduled fault plan may coexist; the combination must still be
// bit-identical across worker counts, and churn must never revive a
// node mid-scheduled-outage.
func TestFaultsComposeWithChurnDeterministically(t *testing.T) {
	data := blobs(60, 3, 2)
	base := Params{
		K: 2, Epsilon: 100, Iterations: 3, Seed: 19,
		ChurnCrashProb: 0.02, ChurnRejoinProb: 0.4,
		Faults: mustPlan(t, "drop=0.05;outage@2+8=5,6;lag@3+4=7"),
	}
	ref, err := Run(data, base)
	if err != nil {
		t.Fatal(err)
	}
	p := base
	p.Workers = 5
	sh, err := Run(data, p)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesBitIdentical(t, ref, sh, "churn+faults workers=5")
}

// TestByzantineRealCrypto runs garbled, malformed and replayed
// ciphertexts against genuine Damgård–Jurik arithmetic: nil and
// out-of-range group elements must be rejected by the wire validation
// before any homomorphic operation can panic on them.
func TestByzantineRealCrypto(t *testing.T) {
	data := blobs(16, 3, 2)
	p := Params{
		K: 2, Epsilon: 100, Iterations: 2, Seed: 5,
		GossipRounds: 8, DecryptThreshold: 4,
		Backend: BackendDamgardJurik, ModulusBits: 128,
		Faults: mustPlan(t, "garble=3;malform=4;replay=5"),
	}
	tr, err := Run(data, p)
	if err != nil {
		t.Fatal(err)
	}
	checkTraceInvariants(t, tr, p, len(data), "dj-byzantine")
	if tr.StaleDrops == 0 {
		t.Fatal("malformed DJ ciphertexts were never rejected")
	}
	// Determinism of disclosures holds on the real backend too
	// (ciphertexts differ run to run, decoded plaintexts must not).
	sh := p
	sh.Workers = 4
	tr2, err := Run(data, sh)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesBitIdentical(t, tr, tr2, "dj-byzantine workers=4")
}

// TestByzantinePackedSurvives: byzantine senders against the packed
// encrypted side (slot groups) — wrong-length and garbage vectors are
// rejected or fail the decode, and the run survives.
func TestByzantinePackedSurvives(t *testing.T) {
	data := blobs(40, 4, 2)
	p := Params{
		K: 2, Epsilon: 50, Iterations: 2, Seed: 13,
		Faults: mustPlan(t, "garble=1;malform=2;replay=3"),
	}
	tr, err := Run(data, p)
	if err != nil {
		t.Fatal(err)
	}
	checkTraceInvariants(t, tr, p, len(data), "packed-byzantine")
	if tr.StaleDrops == 0 {
		t.Fatal("malformed packed ciphertexts were never rejected")
	}
}

// TestFaultPlanValidationSurfaces: an out-of-population fault plan must
// be rejected at validation, not at runtime.
func TestFaultPlanValidationSurfaces(t *testing.T) {
	data := blobs(10, 3, 2)
	p := Params{K: 2, Epsilon: 10, Iterations: 2, Seed: 1,
		Faults: mustPlan(t, "crash@1=99")}
	if _, err := Run(data, p); err == nil {
		t.Fatal("plan targeting node 99 in a population of 10 must fail validation")
	}
}

// sentRecorder wraps a participant so every gossip payload it sends is
// captured by value at send time and every one it receives is compared
// against that capture: a delayed or replayed message must still carry
// exactly the ciphers that left its sender, however many emissions the
// sender has made since.
type sentRecorder struct {
	pt   *participant
	sent map[*gossipPayload][]*big.Int
	late *int // deliveries two or more cycles after the first send
	at   map[*gossipPayload]int
	t    *testing.T
}

type recordingEnv struct {
	*p2p.Context
	r *sentRecorder
}

func (e recordingEnv) Send(to p2p.NodeID, payload any, bytes int) error {
	if pl, ok := payload.(*gossipPayload); ok {
		if want, seen := e.r.sent[pl]; seen {
			e.r.compare(pl, want, "re-sent")
		} else {
			vals := make([]*big.Int, len(pl.Msg.V))
			for i, c := range pl.Msg.V {
				vals[i] = new(big.Int).Set(c)
			}
			e.r.sent[pl] = vals
			e.r.at[pl] = e.Cycle()
		}
	}
	return e.Context.Send(to, payload, bytes)
}

func (e recordingEnv) Inbox() []p2p.Message {
	in := e.Context.Inbox()
	for _, m := range in {
		if pl, ok := m.Payload.(*gossipPayload); ok {
			e.r.compare(pl, e.r.sent[pl], "delivered")
			if e.Cycle()-e.r.at[pl] >= 2 {
				*e.r.late++
			}
		}
	}
	return in
}

func (r *sentRecorder) compare(pl *gossipPayload, want []*big.Int, how string) {
	r.t.Helper()
	if len(want) != len(pl.Msg.V) {
		return // a malformed byzantine payload is rejected by length
	}
	for i, c := range pl.Msg.V {
		if c.Cmp(want[i]) != 0 {
			r.t.Fatalf("%s payload's cipher %d changed since it was sent", how, i)
		}
	}
}

func (r *sentRecorder) NextCycle(ctx *p2p.Context) { r.pt.step(recordingEnv{ctx, r}) }

// TestFaultPlanEmissionsStayAsSent drives delayed and replayed gossip
// (the fault plans under which a message outlives the next cycle) on
// both backends and requires every payload to arrive, and to be replayed,
// with the ciphers its sender emitted — which holds only because a fault
// plan gives every emission fresh storage instead of the parity buffers.
func TestFaultPlanEmissionsStayAsSent(t *testing.T) {
	data := blobs(12, 3, 2)
	for name, p := range map[string]Params{
		"plain": {K: 2, Epsilon: 100, Iterations: 2, Seed: 9, GossipRounds: 8, DecryptThreshold: 3},
		"dj256": {K: 2, Epsilon: 100, Iterations: 2, Seed: 9, GossipRounds: 8, DecryptThreshold: 3,
			Backend: BackendDamgardJurik, ModulusBits: 256},
	} {
		p.Faults = mustPlan(t, "delay=0.5x3;replay=2")
		r := openTestRun(t, data, p)
		late := 0
		sent := map[*gossipPayload][]*big.Int{}
		at := map[*gossipPayload]int{}
		participants := make([]*participant, len(data))
		opts := p2p.Options{Seed: r.params.Seed + 1, Workers: 1}
		var err error
		if opts.Conditioner, opts.Faults, err = bindFaults(r.params, len(data)); err != nil {
			t.Fatal(err)
		}
		nw, err := p2p.New(len(data), func(id p2p.NodeID) p2p.Protocol {
			participants[id] = r.newParticipant(id)
			return &sentRecorder{pt: participants[id], sent: sent, late: &late, at: at, t: t}
		}, opts)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 2*p.Iterations*(3+p.GossipRounds+r.params.DecryptWindow); c++ {
			nw.RunCycle()
		}
		replayed := participants[2].replayPayload
		if late == 0 || replayed == nil || len(sent) < 2*len(data) {
			t.Fatalf("%s: the plan exercised too little (%d late deliveries, replay captured: %v, %d payloads)",
				name, late, replayed != nil, len(sent))
		}
	}
}
