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
//   - node lifecycle faults driven by a FaultScheduler (internal/simnet:
//     scheduled crashes, outages and stalls, and per-cycle churn), with
//     messages to crashed nodes dropped (the "possibly faulty computing
//     nodes" of the paper's challenge statement);
//   - deterministic execution given a seed, at ANY worker count.
//
// # Determinism contract
//
// The simulation is a bulk-synchronous-parallel system: messages sent
// during cycle c become visible in the destination's inbox at cycle c+1
// (they wait in the senders' shard buckets until the next cycle's
// delivery builds the inboxes, a Conditioner-delayed copy then on its
// destination shard's held list until its due cycle; see shard.go).
// Within a cycle, activations therefore cannot observe each other; the
// only cross-node effects are the order in which sent messages land in
// a destination's queue and the consumption of randomness. The engine
// pins both down:
//
//   - every node owns a private peer-sampling RNG derived from
//     (Options.Seed, node id), so the random choices a node makes depend
//     only on its own activation history, never on scheduling;
//   - lifecycle directives are applied sequentially in node-id order at
//     the start of each cycle, before any activation;
//   - nodes are activated in ascending id order, and each destination's
//     queue receives messages in ascending sender-id order (per-sender
//     send order preserved).
//
// Because the per-destination delivery order is defined by sender id and
// not by scheduling, the one scheduler (shard.go) gives the same result
// at every worker count: it partitions the id space into contiguous
// shards (one when Workers is 0 or 1), buffers every sent copy in
// per-(source,destination)-shard buckets, and delivers them at the next
// cycle's start in stable shard order, by a counting sort into one inbox
// arena per destination shard; a delayed copy waits on one held list per
// destination shard, whose entries for a node keep that node's order.
package p2p

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"chiaroscuro/internal/compactrng"
)

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
// cleared when a FaultScheduler directive says so.
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
// cycle: Down is the node's state for the cycle (an up node crashes, a
// crashed one revives when it clears), Stall keeps an up node alive but
// skips its activation (messages still accumulate in its inbox), and
// Reset wipes its protocol state (a scheduler reports it on the cycle
// the node comes back from an outage that lost its state).
type NodeDirective struct {
	Down  bool
	Reset bool
	Stall bool
}

// FaultScheduler drives every node lifecycle fault (internal/simnet's
// Net: scheduled crashes, outages and stalls, and probabilistic churn).
// Directive is called once per node per cycle, sequentially in node-id
// order at cycle start, so a scheduler may keep per-node state and draw
// from one random stream.
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
	Seed int64
	// Workers is the number of shard workers activating nodes in
	// parallel each cycle; 0 or 1 runs one shard on the calling
	// goroutine. Any value yields bit-identical results (see the package
	// determinism contract); Workers only trades wall-clock time for
	// cores. The
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
	// Faults, when non-nil, directs every node's lifecycle at cycle
	// start.
	Faults FaultScheduler
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
	// inbox holds the messages delivered for the current cycle: a view
	// of the node's run of its shard's arena (see shardRunner.arena),
	// capped at that run. Messages sent during a cycle become visible
	// only at the start of the next one, or a delayed one's due cycle:
	// until then it waits in a shard bucket or held list (see
	// shardRunner), never in the slot. This synchronous delivery
	// discipline bounds the number of gossip halvings a contribution can
	// undergo per cycle to one, which is what lets the fixed-point
	// pre-scaling budget equal the number of gossip rounds (see
	// internal/gossip package docs).
	inbox []Message
	// stalled marks a laggard for the current cycle: alive, receiving,
	// but not activated.
	stalled bool
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

// Network is the simulation engine.
type Network struct {
	nodes  []nodeSlot
	cycle  int
	cond   Conditioner
	sched  FaultScheduler
	stats  Stats
	alive  int // cached count, fixed between lifecycle passes
	shards []shardRunner
	// wg is the cycle barrier of the shard workers beyond shard 0.
	wg sync.WaitGroup
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
	if opts.Workers < 0 {
		return nil, fmt.Errorf("p2p: negative worker count %d", opts.Workers)
	}
	nw := &Network{
		nodes: make([]nodeSlot, n),
		cond:  opts.Conditioner,
		sched: opts.Faults,
		alive: n,
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
	}
	nw.shards = makeShards(n, min(max(1, opts.Workers), n, maxWorkers()))
	return nw, nil
}

// ErrResetFaulted refuses Reset on a network built with a Conditioner or
// a FaultScheduler: their state is the run's, and a fault plan is bound
// per run.
var ErrResetFaulted = errors.New("p2p: a network with a conditioner or fault scheduler cannot be reset")

// Reset returns the network to the state New left it in at seed, over
// the same protocols: cycle 0, zero stats, every node alive and
// unstalled, every node RNG reseeded in place to its (seed, id) stream.
// Every shard bucket and inbox arena is cleared up to its capacity and
// truncated, and every inbox view is dropped, so no message pending at
// the reset is ever delivered and no payload the network carried is
// kept reachable, while the capacity the buffers grew is kept for the
// next run. The held lists need no clearing: only a Conditioner delays a
// message, and a network built with one is refused. The cycles that
// follow are bit-identical to those of a network New builds at seed
// over protocols in the same state. A network built with a Conditioner
// or a FaultScheduler is refused with ErrResetFaulted.
func (nw *Network) Reset(seed int64) error {
	if nw.cond != nil || nw.sched != nil {
		return ErrResetFaulted
	}
	nw.cycle = 0
	nw.stats = Stats{}
	nw.alive = len(nw.nodes)
	for i := range nw.nodes {
		slot := &nw.nodes[i]
		slot.alive, slot.stalled = true, false
		slot.rng.Seed(nodeSeed(seed, i))
		slot.inbox = nil
	}
	for s := range nw.shards {
		sh := &nw.shards[s]
		for d := range sh.out {
			sh.out[d] = emptied(sh.out[d])
		}
		sh.arena, sh.spare = emptied(sh.arena), emptied(sh.spare)
		sh.sent, sh.dropped, sh.bytes = 0, 0, 0
		sh.faultDrops, sh.duplicates, sh.delayed = 0, 0, 0
	}
	return nil
}

// emptied clears q up to its capacity — a truncated queue may still
// hold messages in its backing array — and returns it empty, its
// capacity kept.
func emptied[T any](q []T) []T {
	q = q[:cap(q)]
	clear(q)
	return q[:0]
}

// Cycle returns the number of completed cycles.
func (nw *Network) Cycle() int { return nw.cycle }

// Stats returns a copy of the accumulated counters.
func (nw *Network) Stats() Stats { return nw.stats }

// Alive reports whether a node is currently up.
func (nw *Network) Alive(id NodeID) bool {
	return id >= 0 && int(id) < len(nw.nodes) && nw.nodes[id].alive
}

// AliveCount returns the number of alive nodes.
func (nw *Network) AliveCount() int { return nw.alive }

// RunCycle advances the simulation by one cycle: delivers the previous
// cycle's messages, applies the lifecycle directives, then activates
// each alive node once, in ascending id order within its shard (see
// runCycleSharded; bit-identical at any worker count).
func (nw *Network) RunCycle() {
	nw.deliver()
	nw.applyLifecycle()
	nw.runCycleSharded()
	nw.cycle++
	nw.stats.Cycles = nw.cycle
}

// Run advances the simulation by the given number of cycles.
func (nw *Network) Run(cycles int) {
	for i := 0; i < cycles; i++ {
		nw.RunCycle()
	}
}

// crashSlot takes a node down, dropping its inbox, just delivered: it
// is cleared in the arena and its view dropped. Its held copies leave
// with the cycle's other crashes' (see applyLifecycle).
func (nw *Network) crashSlot(id int) {
	slot := &nw.nodes[id]
	slot.alive = false
	slot.stalled = false
	clear(slot.inbox)
	slot.inbox = nil
	nw.stats.Crashes++
	nw.alive--
}

// applyLifecycle executes the FaultScheduler's directives for the cycle
// about to run, sequentially in node-id order: crash or revive the node
// to match Down, wipe its state on Reset, and stall it on Stall (after
// the transition, so a stall starting on the revival cycle is honored).
// When a node crashed, one pass over each shard's held list then drops
// every copy to a node that is down, clearing the list's tail, so no
// dropped payload stays pinned for the rest of the run. That is exactly
// the crashed nodes' copies: a send to a node that is down is dropped,
// so the list holds copies only to nodes that were up when sent.
func (nw *Network) applyLifecycle() {
	if nw.sched == nil {
		return
	}
	crashed := false
	for i := range nw.nodes {
		slot := &nw.nodes[i]
		d := nw.sched.Directive(NodeID(i), nw.cycle)
		if d.Down && slot.alive {
			nw.crashSlot(i)
			crashed = true
		} else if !d.Down && !slot.alive {
			slot.alive = true
			nw.stats.Rejoins++
			nw.alive++
		}
		if d.Reset {
			if r, ok := slot.proto.(Resetter); ok {
				r.Reset()
			}
		}
		slot.stalled = slot.alive && d.Stall
	}
	if !crashed {
		return
	}
	for s := range nw.shards {
		sh := &nw.shards[s]
		sh.held = slices.DeleteFunc(sh.held, func(r routed) bool { return !nw.nodes[r.to].alive })
	}
}

// send validates a message and hands it to the sending shard's outbox;
// the next cycle's deliver moves it into the destination's inbox (see
// shard.go).
func (nw *Network) send(sh *shardRunner, from, to NodeID, payload any, bytes int) error {
	if to < 0 || int(to) >= len(nw.nodes) {
		return fmt.Errorf("p2p: destination %d out of range", to)
	}
	if bytes < 0 {
		return fmt.Errorf("p2p: negative message size %d", bytes)
	}
	return sh.send(nw, from, to, payload, bytes)
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
	shard *shardRunner // the shard activating the node
}

// ID returns the node being activated.
func (c *Context) ID() NodeID { return c.id }

// Cycle returns the current cycle number (0-based).
func (c *Context) Cycle() int { return c.nw.cycle }

// AliveCount returns the number of currently alive nodes.
func (c *Context) AliveCount() int { return c.nw.alive }

// Inbox drains and returns the node's delivered messages. The returned
// slice is only valid until the activation returns: it is a view of the
// shard's inbox arena, which the engine clears and reuses (copy out any
// messages that must outlive the call). Its capacity ends at the node's
// last message, so appending to it reallocates instead of overwriting
// another node's.
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

// Shard returns the index of the shard activating the node: below
// max(1, Options.Workers) and below the population. The activations of
// one shard run one after another on one goroutine, so a protocol may
// keep working storage per shard and use it without locking.
func (c *Context) Shard() int { return c.nw.shardOf(c.id) }

// RandomPeer samples a uniform alive peer, excluding the node itself.
func (c *Context) RandomPeer() (NodeID, bool) {
	return c.nw.randomPeer(c.id)
}
