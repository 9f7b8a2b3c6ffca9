// Package p2p is a cycle-driven peer-to-peer network simulator modeled on
// Peersim's cycle-driven mode (Montresor & Jelasity, P2P 2009), which is
// the execution substrate of the Chiaroscuro demonstration. Protocols
// implement a NextCycle method — the exact entry point the paper
// describes ("Chiaroscuro ... implements Peersim's nextCycle method by
// the core of its execution sequence") — and the engine calls it for
// every alive node once per cycle.
//
// The engine provides:
//
//   - a uniform peer-sampling oracle over the complete graph, as
//     Peersim's idealized membership service;
//   - asynchronous point-to-point messages with per-message byte
//     accounting (delivered into the destination's inbox, drained at its
//     next activation — there is no global synchronization, matching
//     Sec. II.B);
//   - a churn model: per-cycle crash and rejoin probabilities, with
//     messages to crashed nodes dropped (the "possibly faulty computing
//     nodes" of the paper's challenge statement);
//   - deterministic execution given a seed, at ANY worker count.
//
// # Determinism contract
//
// The simulation is a bulk-synchronous-parallel system: messages sent
// during cycle c become visible in the destination's inbox at cycle c+1
// (the double-buffered pending/inbox discipline below). Within a cycle,
// activations therefore cannot observe each other; the only cross-node
// effects are the order in which sent messages land in a destination's
// queue and the consumption of randomness. The engine pins both down:
//
//   - every node owns a private peer-sampling RNG derived from
//     (Options.Seed, node id), so the random choices a node makes depend
//     only on its own activation history, never on scheduling;
//   - churn is applied sequentially in node-id order at the start of each
//     cycle from a dedicated RNG;
//   - nodes are activated in ascending id order, and each destination's
//     queue receives messages in ascending sender-id order (per-sender
//     send order preserved).
//
// Because the per-destination delivery order is defined by sender id and
// not by scheduling, the sharded parallel scheduler (shard.go) reproduces
// the sequential execution bit for bit: it partitions the id space into
// contiguous shards, buffers sends in per-(source,destination)-shard
// buckets, and merges them in stable shard order after a barrier.
package p2p

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"

	"chiaroscuro/internal/compactrng"
)

// clearMessages zeroes a message slice so recycled backing arrays do
// not keep payloads reachable.
func clearMessages(ms []Message) {
	for i := range ms {
		ms[i] = Message{}
	}
}

// NodeID identifies a simulated node (dense, 0-based).
type NodeID int

// Protocol is the per-node behaviour, Peersim-style.
type Protocol interface {
	// NextCycle runs one activation of the node. All interaction with
	// the network happens through ctx, which is only valid during the
	// call.
	NextCycle(ctx *Context)
}

// Resetter is optionally implemented by protocols whose state must be
// cleared when a node rejoins after a crash with ResetOnRejoin set.
type Resetter interface {
	Reset()
}

// Message is an in-flight or delivered point-to-point message.
type Message struct {
	From    NodeID
	Payload any
	// Bytes is the caller-declared serialized size, used for cost
	// accounting only.
	Bytes int
}

// ChurnModel configures per-cycle failures.
type ChurnModel struct {
	// CrashProb is the probability that an alive node crashes at the
	// start of a cycle (losing its inbox).
	CrashProb float64
	// RejoinProb is the probability that a crashed node comes back at
	// the start of a cycle.
	RejoinProb float64
	// ResetOnRejoin clears protocol state on rejoin (permanent loss);
	// otherwise the node resumes with its pre-crash state (transient
	// outage).
	ResetOnRejoin bool
}

func (c ChurnModel) validate() error {
	if c.CrashProb < 0 || c.CrashProb > 1 {
		return fmt.Errorf("p2p: crash probability %v outside [0,1]", c.CrashProb)
	}
	if c.RejoinProb < 0 || c.RejoinProb > 1 {
		return fmt.Errorf("p2p: rejoin probability %v outside [0,1]", c.RejoinProb)
	}
	return nil
}

// Verdict is a Conditioner's decision about one message: whether it is
// lost, how many extra cycles its delivery is delayed beyond the normal
// next-cycle visibility, and whether the network delivers a second copy
// (with its own delay). Reordering arises from unequal delays.
type Verdict struct {
	Drop      bool
	Delay     int
	Duplicate bool
	DupDelay  int
}

// Conditioner is the programmable fault layer on the message path (see
// internal/simnet). Condition is invoked on the sender's goroutine for
// every message whose destination is alive; to preserve the engine's
// determinism contract an implementation must derive its verdict only
// from the arguments and from per-sender state (a node's sends are
// serialized within its activation, like its RNG), never from state
// shared across senders.
type Conditioner interface {
	Condition(from, to NodeID, cycle, bytes int) Verdict
}

// NodeDirective is a FaultScheduler's instruction for one node at one
// cycle: Down takes (or keeps) the node crashed, Stall keeps it alive
// but skips its activation (messages still accumulate in its inbox),
// and Reset wipes protocol state when the node recovers from Down.
type NodeDirective struct {
	Down  bool
	Reset bool
	Stall bool
}

// FaultScheduler drives scheduled (non-probabilistic) node lifecycle
// faults: crash-stop, crash-recovery and laggard stalls at fixed cycles.
// Directive is called sequentially at cycle start, node-id order.
type FaultScheduler interface {
	Directive(id NodeID, cycle int) NodeDirective
}

// Stats aggregates the cost counters of a run — the quantities behind the
// demo's network-cost displays.
type Stats struct {
	Cycles          int
	MessagesSent    int
	MessagesDropped int
	BytesSent       int64
	Crashes         int
	Rejoins         int
	// FaultDrops, Duplicates and Delayed count Conditioner-injected
	// message faults (FaultDrops is also included in MessagesDropped).
	FaultDrops int
	Duplicates int
	Delayed    int
}

// Options configures a Network.
type Options struct {
	Seed  int64
	Churn ChurnModel
	// Workers is the number of shard workers activating nodes in
	// parallel each cycle. 0 or 1 selects the sequential scheduler. Any
	// value yields bit-identical results (see the package determinism
	// contract); Workers only trades wall-clock time for cores. The
	// effective count is capped at the population size and at
	// maxWorkers = max(64, 4·GOMAXPROCS) — the outbox bucketing is
	// O(workers²), so uncapped worker counts would cost memory without
	// buying parallelism (the 64 floor keeps many-shard configurations
	// testable on small machines).
	Workers int
	// Conditioner, when non-nil, conditions every message to an alive
	// destination (drop/duplicate/delay). Deterministic implementations
	// keep the engine's bit-identity contract (see internal/simnet).
	Conditioner Conditioner
	// Faults, when non-nil, schedules node lifecycle faults at cycle
	// start (applied before probabilistic churn; churn never rejoins a
	// scheduler-downed node).
	Faults FaultScheduler
	// QueueHint preallocates every node's inbox and pending queues for
	// this many messages (0 grows them on demand). Ordinary runs leave
	// it 0 — queues converge to their working capacity within a few
	// cycles and stay there. Allocation-measurement harnesses set it to
	// the population size so that no in-degree spike can ever grow a
	// queue, making steady-state cycles provably allocation-free rather
	// than amortized-allocation-free. The preallocation is O(n·hint),
	// which is why it is opt-in.
	QueueHint int
}

// maxWorkers bounds the effective shard-worker count: beyond a few
// times the core count extra shards add scheduling and O(workers²)
// bucket overhead with no parallelism gain. Results are unaffected
// (any worker count is bit-identical).
func maxWorkers() int {
	if m := 4 * runtime.GOMAXPROCS(0); m > 64 {
		return m
	}
	return 64
}

type nodeSlot struct {
	proto Protocol
	alive bool
	// rng is the node's private peer-sampling randomness (derived from
	// the run seed and the node id), making random choices independent
	// of scheduling.
	rng *rand.Rand
	// inbox holds the messages delivered for the current cycle; pending
	// holds messages sent during the current cycle, which become visible
	// in inbox at the start of the next cycle. This synchronous delivery
	// discipline bounds the number of gossip halvings a contribution can
	// undergo per cycle to one, which is what lets the fixed-point
	// pre-scaling budget equal the number of gossip rounds (see
	// internal/gossip package docs). The two buffers are swapped, not
	// reallocated, so a steady-state cycle performs no queue allocations.
	inbox   []Message
	pending []Message
	// delayed holds Conditioner-delayed messages with their delivery
	// cycle; deliver moves due entries into the inbox. Queue order is
	// ascending sender id (same discipline as pending), which keeps
	// sequential and sharded execution bit-identical.
	delayed []delayedMessage
	// stalled marks a laggard for the current cycle: alive, receiving,
	// but not activated.
	stalled bool
	// schedDown records that the current crash was ordered by the
	// FaultScheduler, so probabilistic churn does not rejoin the node
	// mid-outage; schedReset latches a Reset directive seen while down,
	// applied at the eventual revival.
	schedDown  bool
	schedReset bool
	// ctx is the node's reusable activation context. Handing the
	// protocol a pointer into the slot instead of a stack value keeps
	// the per-activation context off the heap (the pointer escapes
	// through the Protocol interface, which would otherwise cost one
	// allocation per activation per cycle — the last allocator touch on
	// the steady-state path). It is re-armed before and invalidated
	// after every NextCycle call, preserving the "only valid during the
	// call" contract for escaped contexts.
	ctx Context
}

// delayedMessage is a conditioned message waiting for its delivery
// cycle.
type delayedMessage struct {
	due int
	msg Message
}

// Network is the simulation engine.
type Network struct {
	nodes    []nodeSlot
	cycle    int
	churnRng *rand.Rand
	churn    ChurnModel
	cond     Conditioner
	sched    FaultScheduler
	stats    Stats
	alive    int // cached count, fixed between churn applications
	workers  int
	shards   []shardRunner
}

// nodeSeed derives a node-private RNG seed from the run seed via a
// splitmix64 finalizer, so streams of distinct nodes are uncorrelated.
func nodeSeed(seed int64, id int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(id+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// New builds a network of n nodes whose protocols come from factory.
func New(n int, factory func(NodeID) Protocol, opts Options) (*Network, error) {
	if n < 2 {
		return nil, errors.New("p2p: need at least 2 nodes")
	}
	if factory == nil {
		return nil, errors.New("p2p: nil protocol factory")
	}
	if err := opts.Churn.validate(); err != nil {
		return nil, err
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("p2p: negative worker count %d", opts.Workers)
	}
	nw := &Network{
		nodes:    make([]nodeSlot, n),
		churnRng: rand.New(rand.NewSource(opts.Seed)),
		churn:    opts.Churn,
		cond:     opts.Conditioner,
		sched:    opts.Faults,
		alive:    n,
		workers:  opts.Workers,
	}
	if opts.QueueHint < 0 {
		return nil, fmt.Errorf("p2p: negative queue hint %d", opts.QueueHint)
	}
	for i := range nw.nodes {
		p := factory(NodeID(i))
		if p == nil {
			return nil, fmt.Errorf("p2p: factory returned nil protocol for node %d", i)
		}
		nw.nodes[i] = nodeSlot{
			proto: p,
			alive: true,
			// Compact per-node sampling source (16 B vs ~5 KB): at large
			// populations the standard source's state would dwarf the
			// queues it feeds.
			rng: compactrng.NewRand(nodeSeed(opts.Seed, i)),
		}
		if opts.QueueHint > 0 {
			nw.nodes[i].inbox = make([]Message, 0, opts.QueueHint)
			nw.nodes[i].pending = make([]Message, 0, opts.QueueHint)
		}
	}
	if nw.workers > n {
		nw.workers = n
	}
	if m := maxWorkers(); nw.workers > m {
		nw.workers = m
	}
	if nw.workers > 1 {
		nw.shards = makeShards(n, nw.workers)
	}
	return nw, nil
}

// Size returns the population size (alive or not).
func (nw *Network) Size() int { return len(nw.nodes) }

// Cycle returns the number of completed cycles.
func (nw *Network) Cycle() int { return nw.cycle }

// Stats returns a copy of the accumulated counters.
func (nw *Network) Stats() Stats { return nw.stats }

// Workers returns the effective worker count of the scheduler (1 for the
// sequential engine).
func (nw *Network) Workers() int {
	if nw.workers > 1 {
		return nw.workers
	}
	return 1
}

// Alive reports whether a node is currently up.
func (nw *Network) Alive(id NodeID) bool {
	return id >= 0 && int(id) < len(nw.nodes) && nw.nodes[id].alive
}

// AliveCount returns the number of alive nodes.
func (nw *Network) AliveCount() int { return nw.alive }

// RunCycle advances the simulation by one cycle: delivers the previous
// cycle's messages, applies churn, then activates each alive node once in
// ascending id order — sequentially, or across shard workers when the
// network was built with Options.Workers > 1 (bit-identical either way).
func (nw *Network) RunCycle() {
	nw.deliver()
	nw.applyScheduledFaults()
	nw.applyChurn()
	if nw.workers > 1 {
		nw.runCycleSharded()
	} else {
		for idx := range nw.nodes {
			slot := &nw.nodes[idx]
			if !slot.alive || slot.stalled {
				continue
			}
			slot.ctx = Context{nw: nw, id: NodeID(idx)}
			slot.proto.NextCycle(&slot.ctx)
			slot.ctx = Context{} // invalidate escaped contexts
		}
	}
	nw.cycle++
	nw.stats.Cycles = nw.cycle
}

// deliver moves every node's pending queue into its inbox. The common
// case (inbox fully drained last cycle) is a buffer swap; leftover
// undrained messages are preserved by falling back to an append. The
// slice a protocol obtained from Context.Inbox is invalidated here — it
// must not be retained across activations.
func (nw *Network) deliver() {
	for i := range nw.nodes {
		slot := &nw.nodes[i]
		if len(slot.delayed) > 0 {
			// Due delayed messages land before this cycle's pending batch;
			// the queue keeps ascending-sender order for the survivors.
			keep := slot.delayed[:0]
			for _, dm := range slot.delayed {
				if dm.due <= nw.cycle {
					slot.inbox = append(slot.inbox, dm.msg)
				} else {
					keep = append(keep, dm)
				}
			}
			for j := len(keep); j < len(slot.delayed); j++ {
				slot.delayed[j] = delayedMessage{}
			}
			slot.delayed = keep
		}
		if len(slot.pending) == 0 {
			continue
		}
		if len(slot.inbox) == 0 {
			slot.inbox, slot.pending = slot.pending, slot.inbox[:0]
		} else {
			slot.inbox = append(slot.inbox, slot.pending...)
			slot.pending = slot.pending[:0]
		}
	}
}

// Run advances the simulation by the given number of cycles.
func (nw *Network) Run(cycles int) {
	for i := 0; i < cycles; i++ {
		nw.RunCycle()
	}
}

// crashSlot takes a node down, dropping every queued and in-flight
// message it holds (cleared before truncation so the recycled arrays do
// not pin the dropped payloads for the rest of the run).
func (nw *Network) crashSlot(slot *nodeSlot) {
	slot.alive = false
	slot.stalled = false
	clearMessages(slot.inbox)
	clearMessages(slot.pending)
	slot.inbox = slot.inbox[:0]
	slot.pending = slot.pending[:0]
	for j := range slot.delayed {
		slot.delayed[j] = delayedMessage{}
	}
	slot.delayed = slot.delayed[:0]
	nw.stats.Crashes++
	nw.alive--
}

// applyScheduledFaults executes the FaultScheduler's directives for the
// cycle about to run: deterministic crash/outage transitions and laggard
// stalls, sequentially in node-id order.
func (nw *Network) applyScheduledFaults() {
	if nw.sched == nil {
		return
	}
	for i := range nw.nodes {
		slot := &nw.nodes[i]
		d := nw.sched.Directive(NodeID(i), nw.cycle)
		if d.Down {
			if slot.alive {
				nw.crashSlot(slot)
			}
			slot.schedDown = true
			if d.Reset {
				slot.schedReset = true
			}
		} else if slot.schedDown {
			slot.schedDown = false
			if !slot.alive {
				slot.alive = true
				nw.stats.Rejoins++
				nw.alive++
				if d.Reset || slot.schedReset {
					if r, ok := slot.proto.(Resetter); ok {
						r.Reset()
					}
				}
			}
			slot.schedReset = false
		}
		// After the lifecycle transition, so a laggard window starting
		// on the revival cycle is honored.
		slot.stalled = slot.alive && d.Stall
	}
}

func (nw *Network) applyChurn() {
	if nw.churn.CrashProb == 0 && nw.churn.RejoinProb == 0 {
		return
	}
	for i := range nw.nodes {
		slot := &nw.nodes[i]
		if slot.alive {
			if nw.churnRng.Float64() < nw.churn.CrashProb {
				nw.crashSlot(slot)
			}
		} else if nw.churnRng.Float64() < nw.churn.RejoinProb && !slot.schedDown {
			// A scheduler-downed node still consumes its churn draw (the
			// stream stays aligned) but only the scheduler may revive it.
			slot.alive = true
			nw.stats.Rejoins++
			nw.alive++
			if nw.churn.ResetOnRejoin {
				if r, ok := slot.proto.(Resetter); ok {
					r.Reset()
				}
			}
		}
	}
}

// send delivers a message, dropping it if the destination is down. When
// the sender is being activated by a shard worker, the message is
// buffered in the shard's outbox and merged deterministically after the
// cycle barrier (see shard.go).
func (nw *Network) send(sh *shardRunner, from, to NodeID, payload any, bytes int) error {
	if to < 0 || int(to) >= len(nw.nodes) {
		return fmt.Errorf("p2p: destination %d out of range", to)
	}
	if bytes < 0 {
		return fmt.Errorf("p2p: negative message size %d", bytes)
	}
	if sh != nil {
		return sh.send(nw, from, to, payload, bytes)
	}
	nw.stats.MessagesSent++
	nw.stats.BytesSent += int64(bytes)
	slot := &nw.nodes[to]
	if !slot.alive {
		nw.stats.MessagesDropped++
		return nil
	}
	m := Message{From: from, Payload: payload, Bytes: bytes}
	if nw.cond != nil {
		v := nw.cond.Condition(from, to, nw.cycle, bytes)
		if v.Drop {
			nw.stats.FaultDrops++
			nw.stats.MessagesDropped++
			return nil
		}
		nw.enqueue(slot, m, v.Delay)
		if v.Duplicate {
			nw.stats.Duplicates++
			nw.enqueue(slot, m, v.DupDelay)
		}
		return nil
	}
	slot.pending = append(slot.pending, m)
	return nil
}

// enqueue places one delivered copy: the pending queue for next-cycle
// visibility, or the delayed queue when the Conditioner added latency.
func (nw *Network) enqueue(slot *nodeSlot, m Message, delay int) {
	if delay <= 0 {
		slot.pending = append(slot.pending, m)
		return
	}
	nw.stats.Delayed++
	slot.delayed = append(slot.delayed, delayedMessage{due: nw.cycle + 1 + delay, msg: m})
}

// randomPeer samples a uniform alive peer of id (excluding id itself)
// from the node's private RNG. ok is false when no other node is alive.
func (nw *Network) randomPeer(id NodeID) (NodeID, bool) {
	rng := nw.nodes[id].rng
	if nw.alive < 2 {
		return -1, false
	}
	for {
		j := NodeID(rng.Intn(len(nw.nodes)))
		if j != id && nw.nodes[j].alive {
			return j, true
		}
	}
}

// Context is the per-activation handle a protocol uses to interact with
// the network.
type Context struct {
	nw    *Network
	id    NodeID
	shard *shardRunner // nil under the sequential scheduler
}

// ID returns the node being activated.
func (c *Context) ID() NodeID { return c.id }

// Cycle returns the current cycle number (0-based).
func (c *Context) Cycle() int { return c.nw.cycle }

// AliveCount returns the number of currently alive nodes.
func (c *Context) AliveCount() int { return c.nw.alive }

// Inbox drains and returns the node's pending messages. The returned
// slice is only valid until the activation returns: the engine recycles
// its backing array (copy out any messages that must outlive the call).
func (c *Context) Inbox() []Message {
	slot := &c.nw.nodes[c.id]
	out := slot.inbox
	slot.inbox = slot.inbox[:0]
	return out
}

// Send queues a message to another node; bytes is the serialized size
// used for cost accounting. Messages to crashed nodes are silently
// dropped (but counted).
func (c *Context) Send(to NodeID, payload any, bytes int) error {
	return c.nw.send(c.shard, c.id, to, payload, bytes)
}

// RandomPeer samples a uniform alive peer, excluding the node itself.
func (c *Context) RandomPeer() (NodeID, bool) {
	return c.nw.randomPeer(c.id)
}

// RandomPeers samples up to k distinct alive peers (excluding the node).
// Fewer are returned when the alive population is small.
func (c *Context) RandomPeers(k int) []NodeID {
	out := make([]NodeID, 0, k)
	seen := map[NodeID]bool{c.id: true}
	// Bounded attempts so a mostly-dead network terminates.
	for attempts := 0; len(out) < k && attempts < 16*(k+1); attempts++ {
		p, ok := c.nw.randomPeer(c.id)
		if !ok {
			break
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// Rand exposes the node's private deterministic RNG (e.g. for protocols
// that need extra coin flips while staying reproducible at any worker
// count).
func (c *Context) Rand() *rand.Rand { return c.nw.nodes[c.id].rng }
