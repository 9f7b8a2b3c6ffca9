package p2p_test

import (
	"fmt"
	"testing"

	"chiaroscuro/internal/p2p"
)

// traceProto is a randomness- and messaging-heavy protocol whose full
// observable behaviour is recorded, so scheduler equivalence can be
// asserted event for event: each activation it drains its inbox into a
// trace, samples peers with its private RNG and sends tagged payloads.
type traceProto struct {
	id    p2p.NodeID
	trace []string
}

func (p *traceProto) NextCycle(ctx *p2p.Context) {
	for _, m := range ctx.Inbox() {
		p.trace = append(p.trace, fmt.Sprintf("c%d recv %d:%v", ctx.Cycle(), m.From, m.Payload))
	}
	for i := range 3 {
		if peer, ok := ctx.RandomPeer(); ok {
			_ = ctx.Send(peer, fmt.Sprintf("g%d-%d-%d", ctx.Cycle(), p.id, i), 7+i)
		}
	}
}

func (p *traceProto) Reset() {
	p.trace = append(p.trace, "reset")
}

// runTraced runs a traceProto network under the fault scenario spec
// and returns the per-node traces plus the final stats.
func runTraced(t *testing.T, n, workers, cycles int, spec string) ([][]string, p2p.Stats) {
	t.Helper()
	protos := make([]*traceProto, n)
	nw := faultNet(t, n, 42, workers, spec, func(id p2p.NodeID) p2p.Protocol {
		p := &traceProto{id: id}
		protos[id] = p
		return p
	})
	nw.Run(cycles)
	out := make([][]string, n)
	for i, p := range protos {
		out[i] = p.trace
	}
	return out, nw.Stats()
}

func assertTracesEqual(t *testing.T, a, b [][]string, label string) {
	t.Helper()
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s: node %d trace length %d vs %d", label, i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("%s: node %d event %d: %q vs %q", label, i, j, a[i][j], b[i][j])
			}
		}
	}
}

// TestShardedBitIdenticalToSequential is the scheduler-level determinism
// contract: any worker count must reproduce the one-shard execution
// event for event — same deliveries in the same order, same RNG draws,
// same stats.
func TestShardedBitIdenticalToSequential(t *testing.T) {
	seqTraces, seqStats := runTraced(t, 23, 1, 12, "")
	for _, workers := range []int{0, 2, 3, 4, 8, 23, 64} {
		traces, stats := runTraced(t, 23, workers, 12, "")
		label := fmt.Sprintf("workers=%d", workers)
		assertTracesEqual(t, seqTraces, traces, label)
		if stats != seqStats {
			t.Fatalf("%s: stats %+v vs one shard %+v", label, stats, seqStats)
		}
	}
}

// TestShardedBitIdenticalUnderChurn repeats the contract with crashes,
// rejoins and protocol resets in play (lifecycle directives are applied
// sequentially at cycle start, so they must not depend on the worker
// count either).
func TestShardedBitIdenticalUnderChurn(t *testing.T) {
	const spec = "churn=0.15/0.5;outage@3+4=1,2,3:reset;lag@5+3=4,5"
	seqTraces, seqStats := runTraced(t, 30, 1, 20, spec)
	if seqStats.Crashes == 0 || seqStats.Rejoins == 0 {
		t.Fatalf("churn ineffective: %+v", seqStats)
	}
	for _, workers := range []int{2, 5, 16} {
		traces, stats := runTraced(t, 30, workers, 20, spec)
		label := fmt.Sprintf("workers=%d churn", workers)
		assertTracesEqual(t, seqTraces, traces, label)
		if stats != seqStats {
			t.Fatalf("%s: stats %+v vs one shard %+v", label, stats, seqStats)
		}
	}
}
