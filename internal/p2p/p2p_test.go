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
}

func (e *echoProto) NextCycle(ctx *Context) {
	e.activations++
	e.received = append(e.received, ctx.Inbox()...)
	if e.activations == 1 && e.id != 0 {
		_ = ctx.Send(0, "ping", 10)
	}
}

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
	if nw.AliveCount() != 10 {
		t.Fatalf("alive = %d", nw.AliveCount())
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

// TestRandomPeersDistinct: Sampler.RandomPeers draws k distinct peers,
// never the node itself.
func TestRandomPeersDistinct(t *testing.T) {
	s := NewSampler(5, 0, 10)
	for draw := 0; draw < 20; draw++ {
		peers := s.RandomPeers(5)
		if len(peers) != 5 {
			t.Fatalf("got %d peers, want 5", len(peers))
		}
		seen := map[NodeID]bool{0: true}
		for _, p := range peers {
			if seen[p] {
				t.Fatalf("duplicate or self peer %d in %v", p, peers)
			}
			seen[p] = true
		}
	}
}

// TestRandomPeersMoreThanPopulation: asking for more peers than exist
// returns everyone else.
func TestRandomPeersMoreThanPopulation(t *testing.T) {
	if peers := NewSampler(6, 0, 3).RandomPeers(10); len(peers) != 2 {
		t.Fatalf("got %d peers, want 2 (everyone else)", len(peers))
	}
}

// TestWorkerValidationAndClamp pins the Workers option edge cases: a
// negative count is refused, 0 and 1 run one shard, and a count above
// the population is clamped to one node per shard.
func TestWorkerValidationAndClamp(t *testing.T) {
	if _, err := New(4, func(NodeID) Protocol { return &echoProto{} }, Options{Workers: -1}); err == nil {
		t.Fatal("negative workers should error")
	}
	for _, tc := range []struct{ workers, shards int }{{0, 1}, {1, 1}, {3, 3}, {99, 4}} {
		nw, err := New(4, func(NodeID) Protocol { return &echoProto{} }, Options{Workers: tc.workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(nw.shards) != tc.shards {
			t.Fatalf("workers=%d: %d shards, want %d", tc.workers, len(nw.shards), tc.shards)
		}
		nw.Run(3) // must not panic with more shards than messages
	}
}

// TestContextShardOwnsItsActivations: Context.Shard names the shard
// activating the node — fixed for the node, below the worker count, one
// contiguous id range per shard — and the activations of one shard never
// overlap, so a protocol can keep per-shard storage without locking.
// The counters below are per shard and unsynchronized: under -race an
// overlap would be reported.
func TestContextShardOwnsItsActivations(t *testing.T) {
	const n, workers = 23, 4
	shardOf := make([]int, n)
	var activations [workers]int
	nw, err := New(n, func(id NodeID) Protocol {
		shardOf[id] = -1
		return protoFunc(func(ctx *Context) {
			s := ctx.Shard()
			if s < 0 || s >= workers {
				t.Errorf("node %d activated by shard %d of %d", id, s, workers)
				return
			}
			if shardOf[id] != -1 && shardOf[id] != s {
				t.Errorf("node %d moved from shard %d to %d", id, shardOf[id], s)
			}
			shardOf[id] = s
			activations[s]++
		})
	}, Options{Seed: 1, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(3)
	for id := 1; id < n; id++ {
		if shardOf[id] < shardOf[id-1] {
			t.Fatalf("shards are not contiguous id ranges: %v", shardOf)
		}
	}
	total := 0
	for _, a := range activations {
		total += a
	}
	if shardOf[0] != 0 || shardOf[n-1] != workers-1 || total != 3*n {
		t.Fatalf("shards %v, %d activations, want shards 0..%d and %d activations", shardOf, total, workers-1, 3*n)
	}
}
