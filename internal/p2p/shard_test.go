package p2p

import (
	"fmt"
	"testing"
)

// traceProto is a randomness- and messaging-heavy protocol whose full
// observable behaviour is recorded, so scheduler equivalence can be
// asserted event for event: each activation it drains its inbox into a
// trace, samples peers with its private RNG and sends tagged payloads.
type traceProto struct {
	id    NodeID
	trace []string
}

func (p *traceProto) NextCycle(ctx *Context) {
	for _, m := range ctx.Inbox() {
		p.trace = append(p.trace, fmt.Sprintf("c%d recv %d:%v", ctx.Cycle(), m.From, m.Payload))
	}
	if peer, ok := ctx.RandomPeer(); ok {
		_ = ctx.Send(peer, fmt.Sprintf("g%d-%d", ctx.Cycle(), p.id), 7)
	}
	for _, peer := range ctx.RandomPeers(2) {
		_ = ctx.Send(peer, ctx.Rand().Intn(1000), 3)
	}
}

func (p *traceProto) Reset() {
	p.trace = append(p.trace, "reset")
}

// runTraced runs a traceProto network and returns the per-node traces
// plus the final stats.
func runTraced(t *testing.T, n, workers, cycles int, churn ChurnModel) ([][]string, Stats) {
	t.Helper()
	protos := make([]*traceProto, n)
	nw, err := New(n, func(id NodeID) Protocol {
		p := &traceProto{id: id}
		protos[id] = p
		return p
	}, Options{Seed: 42, Churn: churn, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
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
// contract: any worker count must reproduce the sequential execution
// event for event — same deliveries in the same order, same RNG draws,
// same stats.
func TestShardedBitIdenticalToSequential(t *testing.T) {
	seqTraces, seqStats := runTraced(t, 23, 1, 12, ChurnModel{})
	for _, workers := range []int{2, 3, 4, 8, 23, 64} {
		traces, stats := runTraced(t, 23, workers, 12, ChurnModel{})
		label := fmt.Sprintf("workers=%d", workers)
		assertTracesEqual(t, seqTraces, traces, label)
		if stats != seqStats {
			t.Fatalf("%s: stats %+v vs sequential %+v", label, stats, seqStats)
		}
	}
}

// TestShardedBitIdenticalUnderChurn repeats the contract with crashes,
// rejoins and protocol resets in play (churn is applied sequentially at
// cycle start, so it must not depend on the worker count either).
func TestShardedBitIdenticalUnderChurn(t *testing.T) {
	churn := ChurnModel{CrashProb: 0.15, RejoinProb: 0.5, ResetOnRejoin: true}
	seqTraces, seqStats := runTraced(t, 30, 1, 20, churn)
	if seqStats.Crashes == 0 || seqStats.Rejoins == 0 {
		t.Fatalf("churn ineffective: %+v", seqStats)
	}
	for _, workers := range []int{2, 5, 16} {
		traces, stats := runTraced(t, 30, workers, 20, churn)
		label := fmt.Sprintf("workers=%d churn", workers)
		assertTracesEqual(t, seqTraces, traces, label)
		if stats != seqStats {
			t.Fatalf("%s: stats %+v vs sequential %+v", label, stats, seqStats)
		}
	}
}

// TestWorkerValidationAndClamp pins the Workers option edge cases.
func TestWorkerValidationAndClamp(t *testing.T) {
	if _, err := New(4, func(NodeID) Protocol { return &echoProto{} }, Options{Workers: -1}); err == nil {
		t.Fatal("negative workers should error")
	}
	nw, err := New(4, func(NodeID) Protocol { return &echoProto{} }, Options{Workers: 99})
	if err != nil {
		t.Fatal(err)
	}
	if nw.Workers() != 4 {
		t.Fatalf("workers clamped to %d, want 4", nw.Workers())
	}
	nw.Run(3) // must not panic with more shards than messages
}
