package p2p

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"weak"

	"chiaroscuro/internal/compactrng"
)

// delivery_test.go holds the engine's delivery to a naive reference
// model: per-node FIFO queues, one activation after another, where a
// cycle's inbox is the undrained leftover, then the due delayed
// messages in queue order, then the messages sent last cycle in
// ascending sender order.

// env is what orderProto uses of an activation: the engine's Context or
// the reference model's refCtx.
type env interface {
	ID() NodeID
	Cycle() int
	Inbox() []Message
	Send(to NodeID, payload any, bytes int) error
	RandomPeer() (NodeID, bool)
}

// tag is an orderProto payload: its sender, cycle and index among the
// sender's messages of that cycle.
type tag struct {
	from     NodeID
	cycle, i int
}

// orderProto draws its behaviour from a private RNG: now and then it
// leaves its inbox undrained, or appends to the inbox it drained, and it
// sends up to five messages a cycle to sampled peers, to any id (a dead
// node or itself included) and to the cycle's hot node. It records every
// message it drains, and a marker for every reset.
type orderProto struct {
	id        NodeID
	n         int
	rng       *rand.Rand
	got       []Message
	scribbled int
}

func (p *orderProto) NextCycle(ctx *Context) { p.step(ctx) }

func (p *orderProto) Reset() { p.got = append(p.got, Message{From: -2}) }

func (p *orderProto) step(e env) {
	if p.rng.Intn(4) != 0 {
		in := e.Inbox()
		p.got = append(p.got, in...)
		if p.rng.Intn(3) == 0 {
			in = append(in, Message{From: -1, Payload: "scribble"})
			p.scribbled += len(in)
		}
	}
	for i := range p.rng.Intn(6) {
		var to NodeID
		switch p.rng.Intn(3) {
		case 0:
			peer, ok := e.RandomPeer()
			if !ok {
				continue
			}
			to = peer
		case 1:
			to = NodeID(p.rng.Intn(p.n))
		default:
			to = NodeID(e.Cycle() % p.n)
		}
		if err := e.Send(to, tag{p.id, e.Cycle(), i}, 1+i); err != nil {
			panic(err)
		}
	}
}

func newOrderProtos(n int, seed int64) []*orderProto {
	protos := make([]*orderProto, n)
	for i := range protos {
		protos[i] = &orderProto{id: NodeID(i), n: n, rng: compactrng.NewRand(seed*1000 + int64(i))}
	}
	return protos
}

// refDelayed is a delayed message in the reference model's per-node
// queue, with the cycle it becomes visible at.
type refDelayed struct {
	due int
	msg Message
}

// refNet is the reference model of a Network.
type refNet struct {
	n, cycle, alive int
	up, stalled     []bool
	rngs            []*rand.Rand
	inbox, pending  [][]Message
	delayed         [][]refDelayed
	protos          []*orderProto
	cond            Conditioner
	sched           FaultScheduler
	stats           Stats
}

func newRefNet(protos []*orderProto, seed int64, cond Conditioner, sched FaultScheduler) *refNet {
	n := len(protos)
	r := &refNet{
		n: n, alive: n,
		up: make([]bool, n), stalled: make([]bool, n),
		rngs:  make([]*rand.Rand, n),
		inbox: make([][]Message, n), pending: make([][]Message, n),
		delayed: make([][]refDelayed, n),
		protos:  protos, cond: cond, sched: sched,
	}
	for i := range n {
		r.up[i] = true
		r.rngs[i] = compactrng.NewRand(nodeSeed(seed, i))
	}
	return r
}

func (r *refNet) runCycle() {
	for i := range r.n {
		var keep []refDelayed
		for _, dm := range r.delayed[i] {
			if dm.due <= r.cycle {
				r.inbox[i] = append(r.inbox[i], dm.msg)
			} else {
				keep = append(keep, dm)
			}
		}
		r.delayed[i] = keep
		r.inbox[i] = append(r.inbox[i], r.pending[i]...)
		r.pending[i] = nil
	}
	if r.sched != nil {
		for i := range r.n {
			d := r.sched.Directive(NodeID(i), r.cycle)
			switch {
			case d.Down && r.up[i]:
				r.up[i] = false
				r.inbox[i], r.delayed[i] = nil, nil
				r.stats.Crashes++
				r.alive--
			case !d.Down && !r.up[i]:
				r.up[i] = true
				r.stats.Rejoins++
				r.alive++
			}
			if d.Reset {
				r.protos[i].Reset()
			}
			r.stalled[i] = r.up[i] && d.Stall
		}
	}
	for i := range r.n {
		if r.up[i] && !r.stalled[i] {
			r.protos[i].step(refCtx{r, NodeID(i)})
		}
	}
	r.cycle++
	r.stats.Cycles = r.cycle
}

func (r *refNet) queue(to NodeID, m Message, delay int) {
	if delay <= 0 {
		r.pending[to] = append(r.pending[to], m)
		return
	}
	r.stats.Delayed++
	r.delayed[to] = append(r.delayed[to], refDelayed{due: r.cycle + 1 + delay, msg: m})
}

// refCtx is one activation of the reference model.
type refCtx struct {
	r  *refNet
	id NodeID
}

func (c refCtx) ID() NodeID { return c.id }
func (c refCtx) Cycle() int { return c.r.cycle }

func (c refCtx) Inbox() []Message {
	out := c.r.inbox[c.id]
	c.r.inbox[c.id] = nil
	return out
}

func (c refCtx) Send(to NodeID, payload any, bytes int) error {
	r := c.r
	if to < 0 || int(to) >= r.n {
		return fmt.Errorf("destination %d out of range", to)
	}
	r.stats.MessagesSent++
	r.stats.BytesSent += int64(bytes)
	if !r.up[to] {
		r.stats.MessagesDropped++
		return nil
	}
	m := Message{From: c.id, Payload: payload, Bytes: bytes}
	if r.cond == nil {
		r.queue(to, m, 0)
		return nil
	}
	v := r.cond.Condition(c.id, to, r.cycle, bytes)
	if v.Drop {
		r.stats.FaultDrops++
		r.stats.MessagesDropped++
		return nil
	}
	r.queue(to, m, v.Delay)
	if v.Duplicate {
		r.stats.Duplicates++
		r.queue(to, m, v.DupDelay)
	}
	return nil
}

func (c refCtx) RandomPeer() (NodeID, bool) {
	if c.r.alive < 2 {
		return -1, false
	}
	for {
		j := NodeID(c.r.rngs[c.id].Intn(c.r.n))
		if j != c.id && c.r.up[j] {
			return j, true
		}
	}
}

// scriptSched replays a fixed table of directives, indexed by cycle and
// node; past its end every node is up.
type scriptSched [][]NodeDirective

func (s scriptSched) Directive(id NodeID, cycle int) NodeDirective {
	if cycle >= len(s) {
		return NodeDirective{}
	}
	return s[cycle][id]
}

// randomScript gives about a quarter of the nodes an outage that ends
// with a reset, another quarter a crash for good, and any node up to
// two stalls of up to three cycles.
func randomScript(rng *rand.Rand, n, cycles int) scriptSched {
	s := make(scriptSched, cycles)
	for c := range s {
		s[c] = make([]NodeDirective, n)
	}
	for id := range n {
		switch rng.Intn(4) {
		case 0:
			from := rng.Intn(cycles)
			to := from + 1 + rng.Intn(4)
			for c := from; c < min(to, cycles); c++ {
				s[c][id].Down = true
			}
			if to < cycles {
				s[to][id].Reset = true
			}
		case 1:
			for c := rng.Intn(cycles); c < cycles; c++ {
				s[c][id].Down = true
			}
		}
		for range rng.Intn(3) {
			from := rng.Intn(cycles)
			for c := from; c < min(from+1+rng.Intn(3), cycles); c++ {
				s[c][id].Stall = true
			}
		}
	}
	return s
}

// TestDeliveryMatchesReferenceModel generates random traffic — undrained
// and scribbled-on inboxes, sends to dead nodes and to self, a hot node
// per cycle — under random stalls, outages with reset and crashes, and a
// drop/delay/duplicate conditioner, and requires every node to drain the
// same message sequence as in the reference model, with the same stats,
// at every worker count.
func TestDeliveryMatchesReferenceModel(t *testing.T) {
	for trial := range int64(16) {
		rng := rand.New(rand.NewSource(trial))
		n, cycles := 8+rng.Intn(57), 10+rng.Intn(15)
		withCond, withSched := trial&1 == 1, trial&2 == 2
		var sched FaultScheduler
		if withSched {
			sched = randomScript(rng, n, cycles)
		}
		condition := func() Conditioner {
			if withCond {
				return &hashCond{}
			}
			return nil
		}
		ref := newRefNet(newOrderProtos(n, trial), trial, condition(), sched)
		for range cycles {
			ref.runCycle()
		}
		if withSched && ref.stats.Crashes == 0 || withCond && ref.stats.Delayed == 0 {
			t.Fatalf("trial %d: faults inert: %+v", trial, ref.stats)
		}
		for _, workers := range []int{1, 2, 3, 4, 7, 64} {
			label := fmt.Sprintf("trial %d (n=%d, conditioner %v, scheduler %v) workers=%d", trial, n, withCond, withSched, workers)
			protos := newOrderProtos(n, trial)
			nw, err := New(n, func(id NodeID) Protocol { return protos[id] },
				Options{Seed: trial, Workers: workers, Conditioner: condition(), Faults: sched})
			if err != nil {
				t.Fatal(err)
			}
			nw.Run(cycles)
			for i, p := range protos {
				want := ref.protos[i].got
				if len(p.got) != len(want) {
					t.Fatalf("%s: node %d drained %d messages, reference %d", label, i, len(p.got), len(want))
				}
				for j := range want {
					if p.got[j] != want[j] {
						t.Fatalf("%s: node %d message %d: %+v, reference %+v", label, i, j, p.got[j], want[j])
					}
				}
			}
			if st := nw.Stats(); st != ref.stats {
				t.Fatalf("%s: stats %+v, reference %+v", label, st, ref.stats)
			}
		}
	}
}

// TestInboxAppendStaysInItsRun: node 0 appends to the inbox it drained
// before node 1, whose messages follow node 0's in the same arena,
// drains its own; node 1's messages stay intact.
func TestInboxAppendStaysInItsRun(t *testing.T) {
	var got []Message
	nw, err := New(3, func(id NodeID) Protocol {
		return protoFunc(func(ctx *Context) {
			switch id {
			case 0:
				in := ctx.Inbox()
				for i := range in {
					in[i].Bytes = -1 // its own messages are its to overwrite
				}
				_ = append(in, Message{From: -1, Payload: "scribble"})
			case 1:
				got = append(got, ctx.Inbox()...)
			case 2:
				for to := range NodeID(2) {
					for i := range 2 {
						_ = ctx.Send(to, tag{2, ctx.Cycle(), i}, 1+i)
					}
				}
			}
		})
	}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(4)
	if len(got) != 6 {
		t.Fatalf("node 1 drained %d messages, want 6", len(got))
	}
	for j, m := range got {
		want := Message{From: 2, Payload: tag{2, j / 2, j % 2}, Bytes: 1 + j%2}
		if m != want {
			t.Fatalf("node 1 message %d: %+v, want %+v", j, m, want)
		}
	}
}

// TestDroppedPayloadsReleased: the network keeps no payload reachable
// once it is done with it, however little traffic follows — a drained
// inbox's arena is cleared at the next delivery, a delivered held copy
// leaves the held list's storage, and a crash clears the inbox and the
// held copies it drops at once.
func TestDroppedPayloadsReleased(t *testing.T) {
	crash := scriptSched{make([]NodeDirective, 4), make([]NodeDirective, 4)}
	crash[1][0].Down = true
	delay := func(d int) Conditioner {
		v := Verdict{Delay: d}
		return &scriptCond{verdicts: map[NodeID][]Verdict{1: {v}, 2: {v}, 3: {v}}}
	}
	for _, tc := range []struct {
		name   string
		cond   Conditioner
		sched  FaultScheduler
		cycles int
	}{
		{"drained", nil, nil, 3}, // delivered and drained at cycle 1, released at cycle 2
		{"crashed", nil, crash, 2},
		{"delayed", delay(1), nil, 4},           // held at cycle 1, delivered and drained at cycle 2
		{"delayed crashed", delay(5), crash, 2}, // held at cycle 1, due at 6, dropped by the crash at 1
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sent []weak.Pointer[[64]byte]
			nw, err := New(4, func(id NodeID) Protocol {
				return protoFunc(func(ctx *Context) {
					ctx.Inbox()
					if id != 0 && ctx.Cycle() == 0 {
						payload := new([64]byte)
						sent = append(sent, weak.Make(payload))
						_ = ctx.Send(0, payload, len(payload))
					}
				})
			}, Options{Seed: 1, Conditioner: tc.cond, Faults: tc.sched})
			if err != nil {
				t.Fatal(err)
			}
			nw.Run(tc.cycles)
			runtime.GC()
			for i, w := range sent {
				if w.Value() != nil {
					t.Fatalf("payload %d is still reachable", i)
				}
			}
			runtime.KeepAlive(nw)
		})
	}
}

// TestMovingInDegreeAllocatesNothing: once a network has delivered a
// cycle's volume into both of its arenas,
// cycles of the same total volume allocate nothing on the messaging
// path, although all of it goes to a different node every cycle — one
// per destination shard, so every bucket keeps its volume too. With
// several shards a cycle allocates what launching its worker goroutines
// costs, which a network that sends nothing measures.
func TestMovingInDegreeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instruments allocations")
	}
	const n = 64
	cycleAllocs := func(t *testing.T, workers int, send bool) float64 {
		var nw *Network
		nw, err := New(n, func(NodeID) Protocol {
			return protoFunc(func(ctx *Context) {
				ctx.Inbox()
				for d := range nw.shards {
					if sh := &nw.shards[d]; send {
						_ = ctx.Send(NodeID(sh.lo+ctx.Cycle()%(sh.hi-sh.lo)), nil, 1)
					}
				}
			})
		}, Options{Seed: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		// Cycle 0 fills the buckets; cycles 1 and 2 deliver its volume
		// into each of the two arenas.
		nw.Run(3)
		allocs := testing.AllocsPerRun(10, nw.RunCycle)
		if nw.Cycle() > n/workers {
			t.Fatalf("the hot node came round again: %d cycles over %d nodes a shard", nw.Cycle(), n/workers)
		}
		return allocs
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			idle := cycleAllocs(t, workers, false)
			if workers == 1 && idle != 0 {
				t.Fatalf("an idle one-shard cycle allocates %v objects", idle)
			}
			if allocs := cycleAllocs(t, workers, true); allocs != idle {
				t.Fatalf("%v allocations per cycle at a steady volume, %v idle", allocs, idle)
			}
		})
	}
}
