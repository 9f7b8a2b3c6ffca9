package p2p_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"weak"

	"chiaroscuro/internal/p2p"
	"chiaroscuro/internal/simnet"
)

// TestResetMatchesFreshNetwork: a network reset at a seed, over
// protocols whose own state is cleared, runs cycle for cycle as a
// network New builds at that seed — same deliveries in the same order,
// same RNG draws, same stats — at one and at several shard workers,
// although it was reset with messages in flight.
func TestResetMatchesFreshNetwork(t *testing.T) {
	const n, cycles = 23, 12
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			fresh, freshStats := runTraced(t, n, workers, cycles, "")

			protos := make([]*traceProto, n)
			nw := faultNet(t, n, 7, workers, "", func(id p2p.NodeID) p2p.Protocol {
				protos[id] = &traceProto{id: id}
				return protos[id]
			})
			nw.Run(5) // leaves the last cycle's sends pending
			for _, p := range protos {
				p.trace = nil
			}
			if err := nw.Reset(42); err != nil {
				t.Fatal(err)
			}
			nw.Run(cycles)
			got := make([][]string, n)
			for i, p := range protos {
				got[i] = p.trace
			}
			assertTracesEqual(t, fresh, got, "reset vs fresh")
			if st := nw.Stats(); st != freshStats {
				t.Fatalf("stats after reset %+v, fresh %+v", st, freshStats)
			}
			if nw.Cycle() != cycles {
				t.Fatalf("cycle = %d after reset and %d cycles", nw.Cycle(), cycles)
			}
		})
	}
}

// pinProto sends node 0 freshly allocated payloads — two per node in
// cycle 0, one per node after — and keeps only weak pointers to them, so
// the test can see whether the network still holds any.
type pinProto struct {
	id       p2p.NodeID
	received int
	sent     []weak.Pointer[[64]byte]
}

func (p *pinProto) NextCycle(ctx *p2p.Context) {
	p.received += len(ctx.Inbox())
	if p.id == 0 {
		return
	}
	for range 1 + max(0, 1-ctx.Cycle()) {
		payload := new([64]byte)
		p.sent = append(p.sent, weak.Make(payload))
		_ = ctx.Send(0, payload, len(payload))
	}
}

// TestResetDropsPendingMessages: messages pending at a reset are never
// delivered, and the network keeps none of the payloads it carried
// reachable — neither those pending nor those delivered earlier, whose
// drained queues were only truncated.
func TestResetDropsPendingMessages(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			protos := make([]*pinProto, 6)
			nw, err := p2p.New(len(protos), func(id p2p.NodeID) p2p.Protocol {
				protos[id] = &pinProto{id: id}
				return protos[id]
			}, p2p.Options{Seed: 5, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			nw.Run(2)
			if want := 2 * (len(protos) - 1); protos[0].received != want {
				t.Fatalf("node 0 received %d before the reset, want %d", protos[0].received, want)
			}
			if err := nw.Reset(5); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			for i, p := range protos[1:] {
				for j, w := range p.sent {
					if w.Value() != nil {
						t.Fatalf("node %d's payload %d is still reachable after the reset", i+1, j)
					}
				}
			}
			protos[0].received = 0
			nw.RunCycle()
			if protos[0].received != 0 {
				t.Fatalf("node 0 received %d messages pending at the reset", protos[0].received)
			}
			if st := nw.Stats(); st.MessagesSent != 2*(len(protos)-1) || st.Cycles != 1 {
				t.Fatalf("stats after one cycle past the reset: %+v", st)
			}
		})
	}
}

// TestResetRefusesFaultedNetwork: the fault hooks of a network are bound
// per run, so a network built with either is refused, in pinned words.
func TestResetRefusesFaultedNetwork(t *testing.T) {
	const want = "p2p: a network with a conditioner or fault scheduler cannot be reset"
	plan, err := simnet.ParsePlan("drop=0.1")
	if err != nil {
		t.Fatal(err)
	}
	cond, err := simnet.NewNet(plan, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := p2p.New(4, func(p2p.NodeID) p2p.Protocol { return &pinProto{} }, p2p.Options{Seed: 1, Conditioner: cond})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Reset(1); !errors.Is(err, p2p.ErrResetFaulted) || err.Error() != want {
		t.Fatalf("reset of a conditioned network: %v, want %q", err, want)
	}
	sched := faultNet(t, 4, 1, 0, "churn=0.1/0", func(p2p.NodeID) p2p.Protocol { return &pinProto{} })
	if err := sched.Reset(1); err == nil || err.Error() != want {
		t.Fatalf("reset of a fault-scheduled network: %v, want %q", err, want)
	}
}
