package p2p

import (
	"testing"
)

// chatterProto sends one message to a fixed peer every cycle and records
// everything it receives, in order.
type chatterProto struct {
	peer     NodeID
	received []Message
	sent     int
}

func (c *chatterProto) NextCycle(ctx *Context) {
	c.received = append(c.received, ctx.Inbox()...)
	_ = ctx.Send(c.peer, ctx.Cycle(), 8)
	c.sent++
}

// scriptCond replays a fixed per-(from,sequence) verdict script.
type scriptCond struct {
	verdicts map[NodeID][]Verdict
	seq      map[NodeID]int
}

func (s *scriptCond) Condition(from, to NodeID, cycle, bytes int) Verdict {
	if s.seq == nil {
		s.seq = map[NodeID]int{}
	}
	i := s.seq[from]
	s.seq[from]++
	vs := s.verdicts[from]
	if i < len(vs) {
		return vs[i]
	}
	return Verdict{}
}

func buildChatter(t *testing.T, n int, opts Options) (*Network, []*chatterProto) {
	t.Helper()
	protos := make([]*chatterProto, n)
	nw, err := New(n, func(id NodeID) Protocol {
		p := &chatterProto{peer: (id + 1) % NodeID(n)}
		protos[id] = p
		return p
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return nw, protos
}

// TestConditionerZeroVerdictIsPassThrough: a conditioner that never
// faults anything must leave delivery, ordering and stats identical to
// running without one.
func TestConditionerZeroVerdictIsPassThrough(t *testing.T) {
	plain, plainProtos := buildChatter(t, 6, Options{Seed: 3})
	cond, condProtos := buildChatter(t, 6, Options{Seed: 3, Conditioner: &scriptCond{}})
	plain.Run(10)
	cond.Run(10)
	a, b := plain.Stats(), cond.Stats()
	if a != b {
		t.Fatalf("stats diverge: %+v vs %+v", a, b)
	}
	for i := range plainProtos {
		pa, pb := plainProtos[i].received, condProtos[i].received
		if len(pa) != len(pb) {
			t.Fatalf("node %d: %d vs %d messages", i, len(pa), len(pb))
		}
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("node %d message %d: %+v vs %+v", i, j, pa[j], pb[j])
			}
		}
	}
}

// TestConditionerDropDupDelay checks each verdict field end to end:
// message counts, duplicate delivery, and the delivery cycle of a
// delayed message.
func TestConditionerDropDupDelay(t *testing.T) {
	// Node 0's first three sends: dropped, duplicated, delayed 2 cycles.
	cond := &scriptCond{verdicts: map[NodeID][]Verdict{
		0: {
			{Drop: true},
			{Duplicate: true},
			{Delay: 2},
		},
	}}
	nw, protos := buildChatter(t, 3, Options{Seed: 1, Conditioner: cond})
	nw.Run(6)
	st := nw.Stats()
	if st.FaultDrops != 1 || st.Duplicates != 1 || st.Delayed != 1 {
		t.Fatalf("fault stats %+v", st)
	}
	// Node 1 receives from node 0: cycle-0 send dropped; cycle-1 send
	// duplicated (two copies at cycle 2); cycle-2 send delayed to cycle
	// 5; cycles 3..5 sends normal (arriving 4, 5, 6 — the last after our
	// horizon). Plus nothing from node 2 (it sends to node 0).
	var fromZero []int
	for _, m := range protos[1].received {
		if m.From == 0 {
			fromZero = append(fromZero, m.Payload.(int))
		}
	}
	want := []int{1, 1, 3, 2, 4} // payload = send cycle; delayed "2" lands between "3" and "4"
	if len(fromZero) != len(want) {
		t.Fatalf("node 1 got payloads %v, want %v", fromZero, want)
	}
	for i := range want {
		if fromZero[i] != want[i] {
			t.Fatalf("node 1 got payloads %v, want %v", fromZero, want)
		}
	}
}

// stallSched stalls node 1 on cycles [1,3) and takes node 2 down for
// cycles 2 and 3, resetting it on its revival at cycle 4.
type stallSched struct{}

func (s *stallSched) Directive(id NodeID, cycle int) NodeDirective {
	var d NodeDirective
	if id == 1 && cycle >= 1 && cycle < 3 {
		d.Stall = true
	}
	if id == 2 {
		d.Down = cycle >= 2 && cycle < 4
		d.Reset = cycle == 4
	}
	return d
}

type resettable struct {
	chatterProto
	resets int
}

func (r *resettable) Reset() { r.resets++ }

// TestFaultSchedulerStallAndOutage: a stalled node skips activations
// but keeps its inbox; a scheduled outage crashes and then revives the
// node with a Reset.
func TestFaultSchedulerStallAndOutage(t *testing.T) {
	n := 4
	protos := make([]*resettable, n)
	nw, err := New(n, func(id NodeID) Protocol {
		p := &resettable{chatterProto: chatterProto{peer: (id + 1) % NodeID(n)}}
		protos[id] = p
		return p
	}, Options{Seed: 5, Faults: &stallSched{}})
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(6)
	// Node 1 was stalled for 2 of 6 cycles.
	if protos[1].sent != 4 {
		t.Fatalf("stalled node sent %d times, want 4", protos[1].sent)
	}
	// Stall keeps the inbox: node 1 still saw every message node 0
	// successfully delivered (node 0 sent 6; the sends of cycles 4 and 5
	// arrive at cycles 5 and 6 — the latter after the horizon).
	if got := len(protos[1].received); got != 5 {
		t.Fatalf("stalled node received %d messages, want 5", got)
	}
	// Node 2 crashed once, rejoined once, and was reset on recovery.
	st := nw.Stats()
	if st.Crashes != 1 || st.Rejoins != 1 {
		t.Fatalf("lifecycle stats %+v", st)
	}
	if protos[2].resets != 1 {
		t.Fatalf("node 2 reset %d times, want 1", protos[2].resets)
	}
	// Node 2 skipped activations on cycles 2 and 3.
	if protos[2].sent != 4 {
		t.Fatalf("outage node sent %d times, want 4", protos[2].sent)
	}
}

// TestConditionerShardedBitIdentical runs a deterministic hash
// conditioner (per-sender sequence keyed, like simnet's) under the
// one-shard and multi-shard schedulers and demands identical stats and
// per-node delivery sequences.
func TestConditionerShardedBitIdentical(t *testing.T) {
	mkCond := func() Conditioner { return &hashCond{} }
	run := func(workers int) (Stats, [][]Message) {
		nw, protos := buildChatter(t, 40, Options{Seed: 11, Workers: workers, Conditioner: mkCond()})
		nw.Run(12)
		got := make([][]Message, len(protos))
		for i, p := range protos {
			got[i] = p.received
		}
		return nw.Stats(), got
	}
	seqStats, seqMsgs := run(1)
	if seqStats.FaultDrops == 0 || seqStats.Duplicates == 0 || seqStats.Delayed == 0 {
		t.Fatalf("conditioner inert: %+v", seqStats)
	}
	for _, workers := range []int{2, 7, 40} {
		st, msgs := run(workers)
		if st != seqStats {
			t.Fatalf("workers=%d: stats %+v vs %+v", workers, st, seqStats)
		}
		for i := range msgs {
			if len(msgs[i]) != len(seqMsgs[i]) {
				t.Fatalf("workers=%d node %d: %d vs %d messages", workers, i, len(msgs[i]), len(seqMsgs[i]))
			}
			for j := range msgs[i] {
				if msgs[i][j] != seqMsgs[i][j] {
					t.Fatalf("workers=%d node %d msg %d: %+v vs %+v", workers, i, j, msgs[i][j], seqMsgs[i][j])
				}
			}
		}
	}
}

// hashCond is a self-contained deterministic conditioner keyed on
// (from, per-sender sequence) — the same isolation discipline simnet
// uses, reimplemented here so the p2p test has no import cycle.
type hashCond struct {
	seq [64]uint64
}

func (h *hashCond) Condition(from, to NodeID, cycle, bytes int) Verdict {
	s := h.seq[from]
	h.seq[from]++
	z := uint64(from+1)*0x9E3779B97F4A7C15 + uint64(to+1)*0xBF58476D1CE4E5B9 + uint64(cycle+1) + s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	switch z % 10 {
	case 0:
		return Verdict{Drop: true}
	case 1:
		return Verdict{Duplicate: true, DupDelay: int(z>>8) % 3}
	case 2, 3:
		return Verdict{Delay: 1 + int(z>>16)%3}
	}
	return Verdict{}
}
