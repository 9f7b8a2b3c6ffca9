package p2p_test

import (
	"testing"

	"chiaroscuro/internal/p2p"
	"chiaroscuro/internal/simnet"
)

// lifecycle_test.go drives the engine's node lifecycle through the
// injector that owns it, internal/simnet's Net: churn and scheduled
// outages reach p2p only as per-node directives.

// faultNet builds an n-node network under the fault scenario spec. Like
// internal/core, it seeds the engine with seed and binds the plan to
// run seed seed-1, so the churn stream is seeded like the engine.
func faultNet(t *testing.T, n int, seed int64, workers int, spec string, factory func(p2p.NodeID) p2p.Protocol) *p2p.Network {
	t.Helper()
	plan, err := simnet.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	opts := p2p.Options{Seed: seed, Workers: workers}
	if !plan.Empty() {
		net, err := simnet.NewNet(plan, n, seed-1)
		if err != nil {
			t.Fatal(err)
		}
		opts.Faults = net
	}
	nw, err := p2p.New(n, factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// lifeProto counts its activations and resets; every node but 0 sends
// node 0 one message per activation.
type lifeProto struct {
	id          p2p.NodeID
	activations int
	resets      int
}

func (p *lifeProto) NextCycle(ctx *p2p.Context) {
	p.activations++
	ctx.Inbox()
	if p.id != 0 {
		_ = ctx.Send(0, "x", 5)
	}
}

func (p *lifeProto) Reset() { p.resets++ }

func lifeNet(t *testing.T, n int, seed int64, spec string) (*p2p.Network, []*lifeProto) {
	t.Helper()
	protos := make([]*lifeProto, n)
	nw := faultNet(t, n, seed, 0, spec, func(id p2p.NodeID) p2p.Protocol {
		protos[id] = &lifeProto{id: id}
		return protos[id]
	})
	return nw, protos
}

func TestChurnCrashesAndRejoins(t *testing.T) {
	nw, _ := lifeNet(t, 50, 7, "churn=0.2/0.5")
	nw.Run(20)
	st := nw.Stats()
	if st.Crashes == 0 {
		t.Fatal("no crashes with 20% crash probability")
	}
	if st.Rejoins == 0 {
		t.Fatal("no rejoins with 50% rejoin probability")
	}
	if nw.AliveCount() == 50 || nw.AliveCount() == 0 {
		// Statistically all-alive or all-dead after 20 cycles of this
		// churn is (almost) impossible; treat as failure signal.
		t.Fatalf("suspicious alive count %d", nw.AliveCount())
	}
}

func TestCrashedNodesNotActivatedAndDropMessages(t *testing.T) {
	// Crash probability 1: everyone dies at cycle start; nobody is
	// activated.
	nw, protos := lifeNet(t, 4, 8, "churn=1/0")
	nw.Run(3)
	for i, p := range protos {
		if p.activations != 0 {
			t.Fatalf("dead node %d was activated %d times", i, p.activations)
		}
	}
	if nw.AliveCount() != 0 {
		t.Fatalf("alive = %d, want 0", nw.AliveCount())
	}
}

func TestMessagesToDeadNodesDropped(t *testing.T) {
	// Nodes continuously message node 0; node 0 crashes under heavy
	// churn at some point, and sends during its dead cycles must be
	// counted as dropped.
	nw, _ := lifeNet(t, 20, 10, "churn=0.3/0")
	nw.Run(25)
	st := nw.Stats()
	if st.MessagesDropped == 0 {
		t.Fatalf("no drops despite crashes: %+v", st)
	}
	if st.MessagesDropped > st.MessagesSent {
		t.Fatalf("dropped > sent: %+v", st)
	}
}

// TestResetOnRejoin: every node coming back from a :reset outage is
// reset exactly once, on its revival.
func TestResetOnRejoin(t *testing.T) {
	nw, protos := lifeNet(t, 30, 11, "outage@2+3=1,2,3:reset;outage@6+2=4,5:reset")
	nw.Run(20)
	st := nw.Stats()
	if st.Rejoins != 5 {
		t.Fatalf("rejoins = %d, want 5", st.Rejoins)
	}
	resets := 0
	for _, p := range protos {
		resets += p.resets
	}
	if resets != st.Rejoins {
		t.Fatalf("resets = %d, rejoins = %d — must match", resets, st.Rejoins)
	}
}

// TestKeepStateOnRejoinByDefault: churn rejoins and the end of an
// outage without :reset keep the node's state.
func TestKeepStateOnRejoinByDefault(t *testing.T) {
	nw, protos := lifeNet(t, 30, 12, "churn=0.3/0.9;outage@2+3=1")
	nw.Run(20)
	if nw.Stats().Rejoins == 0 {
		t.Fatal("expected rejoins")
	}
	for _, p := range protos {
		if p.resets != 0 {
			t.Fatal("Reset called without a :reset outage")
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() p2p.Stats {
		nw, _ := lifeNet(t, 20, 13, "churn=0.1/0.3")
		nw.Run(15)
		return nw.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different stats: %+v vs %+v", a, b)
	}
}

// TestFaultSchedulerResetLatchAndStallOnRevival: a :reset outage
// swallowed by a longer state-kept one still wipes state at the
// eventual revival (the Reset seen mid-outage is latched), and a stall
// starting on the revival cycle itself is honored (the node revives but
// does not activate).
func TestFaultSchedulerResetLatchAndStallOnRevival(t *testing.T) {
	nw, protos := lifeNet(t, 4, 9, "outage@2+4=2;outage@2+2=2:reset;lag@6+1=2")
	nw.Run(8)
	if protos[2].resets != 1 {
		t.Fatalf("latched reset applied %d times, want 1", protos[2].resets)
	}
	// Down cycles 2..5, stalled on 6: active cycles are 0, 1, 7.
	if protos[2].activations != 3 {
		t.Fatalf("node 2 activated %d times, want 3 (down 4 cycles + stalled on revival)", protos[2].activations)
	}
	st := nw.Stats()
	if st.Crashes != 1 || st.Rejoins != 1 {
		t.Fatalf("lifecycle stats %+v", st)
	}
}
