package p2p

import (
	"testing"
)

// echoProto records activations and counts received messages; on its
// first activation it sends a ping to node 0.
type echoProto struct {
	id          NodeID
	activations int
	received    []Message
	resets      int
}

func (e *echoProto) NextCycle(ctx *Context) {
	e.activations++
	e.received = append(e.received, ctx.Inbox()...)
	if e.activations == 1 && e.id != 0 {
		_ = ctx.Send(0, "ping", 10)
	}
}

func (e *echoProto) Reset() { e.resets++ }

func newEchoNet(t *testing.T, n int, opts Options) (*Network, []*echoProto) {
	t.Helper()
	protos := make([]*echoProto, n)
	nw, err := New(n, func(id NodeID) Protocol {
		p := &echoProto{id: id}
		protos[id] = p
		return p
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return nw, protos
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1, func(NodeID) Protocol { return &echoProto{} }, Options{}); err == nil {
		t.Fatal("n=1 should error")
	}
	if _, err := New(3, nil, Options{}); err == nil {
		t.Fatal("nil factory should error")
	}
	if _, err := New(3, func(NodeID) Protocol { return nil }, Options{}); err == nil {
		t.Fatal("factory returning nil should error")
	}
	if _, err := New(3, func(NodeID) Protocol { return &echoProto{} }, Options{Churn: ChurnModel{CrashProb: 2}}); err == nil {
		t.Fatal("invalid churn should error")
	}
}

func TestEveryAliveNodeActivatedOncePerCycle(t *testing.T) {
	nw, protos := newEchoNet(t, 10, Options{Seed: 1})
	nw.Run(5)
	for i, p := range protos {
		if p.activations != 5 {
			t.Fatalf("node %d activated %d times, want 5", i, p.activations)
		}
	}
	if nw.Cycle() != 5 {
		t.Fatalf("cycle = %d", nw.Cycle())
	}
	if nw.Size() != 10 {
		t.Fatalf("size = %d", nw.Size())
	}
	if !nw.Alive(0) || nw.Alive(-1) || nw.Alive(99) {
		t.Fatal("Alive bounds checks failed")
	}
}

func TestMessagesDeliveredNextCycle(t *testing.T) {
	nw, protos := newEchoNet(t, 4, Options{Seed: 2})
	nw.RunCycle()
	// Pings sent during cycle 0 must not be seen during cycle 0.
	if len(protos[0].received) != 0 {
		t.Fatalf("node 0 received %d messages in the sending cycle", len(protos[0].received))
	}
	nw.RunCycle()
	if len(protos[0].received) != 3 {
		t.Fatalf("node 0 received %d messages after cycle 2, want 3", len(protos[0].received))
	}
	for _, m := range protos[0].received {
		if m.Payload != "ping" || m.Bytes != 10 {
			t.Fatalf("unexpected message %+v", m)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	nw, _ := newEchoNet(t, 5, Options{Seed: 3})
	nw.Run(2)
	st := nw.Stats()
	if st.MessagesSent != 4 {
		t.Fatalf("messages sent = %d, want 4", st.MessagesSent)
	}
	if st.BytesSent != 40 {
		t.Fatalf("bytes sent = %d, want 40", st.BytesSent)
	}
	if st.Cycles != 2 {
		t.Fatalf("cycles = %d", st.Cycles)
	}
}

func TestSendValidation(t *testing.T) {
	var sendErrTo, sendErrBytes error
	nw, err := New(3, func(id NodeID) Protocol {
		return protoFunc(func(ctx *Context) {
			if ctx.ID() == 0 && ctx.Cycle() == 0 {
				sendErrTo = ctx.Send(99, "x", 1)
				sendErrBytes = ctx.Send(1, "x", -1)
			}
		})
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nw.RunCycle()
	if sendErrTo == nil {
		t.Fatal("out-of-range destination should error")
	}
	if sendErrBytes == nil {
		t.Fatal("negative bytes should error")
	}
}

// protoFunc adapts a function to Protocol.
type protoFunc func(*Context)

func (f protoFunc) NextCycle(ctx *Context) { f(ctx) }

func TestRandomPeerNeverSelfAlwaysAlive(t *testing.T) {
	seen := map[NodeID]bool{}
	nw, err := New(6, func(id NodeID) Protocol {
		return protoFunc(func(ctx *Context) {
			if ctx.ID() != 2 {
				return
			}
			for i := 0; i < 50; i++ {
				p, ok := ctx.RandomPeer()
				if !ok {
					t.Error("no peer found")
					return
				}
				if p == 2 {
					t.Error("sampled self")
				}
				seen[p] = true
			}
		})
	}, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(3)
	if len(seen) != 5 {
		t.Fatalf("expected all 5 peers sampled eventually, got %d", len(seen))
	}
}

func TestRandomPeersDistinct(t *testing.T) {
	nw, err := New(10, func(id NodeID) Protocol {
		return protoFunc(func(ctx *Context) {
			if ctx.ID() != 0 || ctx.Cycle() != 0 {
				return
			}
			peers := ctx.RandomPeers(5)
			if len(peers) != 5 {
				t.Errorf("got %d peers, want 5", len(peers))
			}
			seen := map[NodeID]bool{0: true}
			for _, p := range peers {
				if seen[p] {
					t.Errorf("duplicate or self peer %d", p)
				}
				seen[p] = true
			}
		})
	}, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	nw.RunCycle()
}

func TestRandomPeersMoreThanPopulation(t *testing.T) {
	nw, err := New(3, func(id NodeID) Protocol {
		return protoFunc(func(ctx *Context) {
			if ctx.ID() != 0 || ctx.Cycle() != 0 {
				return
			}
			peers := ctx.RandomPeers(10)
			if len(peers) != 2 {
				t.Errorf("got %d peers, want 2 (everyone else)", len(peers))
			}
		})
	}, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	nw.RunCycle()
}

func TestChurnCrashesAndRejoins(t *testing.T) {
	nw, _ := newEchoNet(t, 50, Options{
		Seed:  7,
		Churn: ChurnModel{CrashProb: 0.2, RejoinProb: 0.5},
	})
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
	// CrashProb=1: everyone dies at cycle start; nobody is activated.
	nw, protos := newEchoNet(t, 4, Options{
		Seed:  8,
		Churn: ChurnModel{CrashProb: 1},
	})
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
	nw, err := New(20, func(id NodeID) Protocol {
		return protoFunc(func(ctx *Context) {
			if ctx.ID() != 0 {
				_ = ctx.Send(0, "x", 5)
			}
		})
	}, Options{Seed: 10, Churn: ChurnModel{CrashProb: 0.3, RejoinProb: 0}})
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(25)
	st := nw.Stats()
	if st.MessagesDropped == 0 {
		t.Fatalf("no drops despite crashes: %+v", st)
	}
	if st.MessagesDropped > st.MessagesSent {
		t.Fatalf("dropped > sent: %+v", st)
	}
}

func TestResetOnRejoin(t *testing.T) {
	nw, protos := newEchoNet(t, 30, Options{
		Seed:  11,
		Churn: ChurnModel{CrashProb: 0.3, RejoinProb: 0.9, ResetOnRejoin: true},
	})
	nw.Run(20)
	st := nw.Stats()
	if st.Rejoins == 0 {
		t.Fatal("expected rejoins")
	}
	resets := 0
	for _, p := range protos {
		resets += p.resets
	}
	if resets != st.Rejoins {
		t.Fatalf("resets = %d, rejoins = %d — must match", resets, st.Rejoins)
	}
}

func TestKeepStateOnRejoinByDefault(t *testing.T) {
	nw, protos := newEchoNet(t, 30, Options{
		Seed:  12,
		Churn: ChurnModel{CrashProb: 0.3, RejoinProb: 0.9},
	})
	nw.Run(20)
	for _, p := range protos {
		if p.resets != 0 {
			t.Fatal("Reset called despite ResetOnRejoin=false")
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() Stats {
		nw, _ := newEchoNet(t, 20, Options{
			Seed:  13,
			Churn: ChurnModel{CrashProb: 0.1, RejoinProb: 0.3},
		})
		nw.Run(15)
		return nw.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different stats: %+v vs %+v", a, b)
	}
}
