package p2p

import (
	"math"
	"slices"
)

// shard.go implements the cycle scheduler: the node id space is
// partitioned into contiguous shards, shard 0 is activated on the
// calling goroutine and every other shard on a worker goroutine, each
// activating its alive nodes in ascending id order, and every copy they
// send, delayed or not, is buffered in a per-(source shard, destination
// shard) bucket with the cycle it becomes visible at. The next cycle's
// deliver builds each destination shard's inbox arena by counting sort,
// reading the buckets in stable (source-shard, send-order) order —
// which, because shards are contiguous and activations within a shard
// run in id order, is the ascending-sender-id delivery order at every
// shard count — and moves each copy not due yet onto the shard's held
// list, in that order, where a node's entries form the FIFO queue its
// delayed messages wait in. Combined with the per-node RNGs (see the
// package determinism contract in p2p.go), one shard and k shards run
// bit-identical cycles; with one shard (Workers 0 or 1) no goroutine is
// started.
//
// All buffers start empty and are retained and reused across cycles
// (cleared and truncated, never reallocated once grown), and their
// sizes follow a shard's total message volume, not any one node's
// in-degree, so a cycle moving the same volume as an earlier one
// allocates nothing on the messaging path. Nothing presizes them: a
// volume is a sum over the shard's nodes, and it settles within a few
// cycles however the traffic moves between them.

// routed is a buffered message together with its destination and the
// cycle it becomes visible at. Ids and cycles fit 32 bits, which keeps
// an entry at 40 bytes.
type routed struct {
	to, due int32
	msg     Message
}

// shardRunner is one worker's slice of the population plus its private
// outbox buckets, its held list, its inbox arenas and its cost counters
// for the cycle in flight.
type shardRunner struct {
	lo, hi int // node id range [lo, hi)
	// out[d] buffers the copies this shard's nodes sent to nodes of
	// destination shard d, in send order, until the next deliver.
	out [][]routed
	// held keeps the copies to this shard's nodes that a deliver found
	// not due yet (Conditioner-delayed ones), in the order deliver met
	// them, until the deliver of their due cycle.
	held []routed
	// arena holds the inboxes of the shard's nodes for the cycle in
	// flight, node by node in id order: each node's inbox is a view of
	// its run of the arena. spare is the arena of the previous cycle,
	// cleared, which deliver builds the next one in; the two swap every
	// cycle.
	arena, spare []Message
	// ends is deliver's per-node counting-sort scratch: a node's message
	// count, then its write cursor, and at last the end of its run.
	ends []int
	// Per-cycle cost counters, folded into Network.stats at the barrier.
	sent       int
	dropped    int
	bytes      int64
	faultDrops int
	duplicates int
	delayed    int

	// pad keeps hot per-shard counters on distinct cache lines so the
	// workers do not false-share while counting.
	_ [64]byte
}

// makeShards partitions n nodes into p contiguous shards of near-equal
// size. Buckets and arenas start empty and grow with the shard's volume.
func makeShards(n, p int) []shardRunner {
	q := (n + p - 1) / p
	shards := make([]shardRunner, p)
	for s := range shards {
		lo := min(s*q, n)
		hi := min(lo+q, n)
		shards[s] = shardRunner{
			lo: lo, hi: hi,
			out:  make([][]routed, p),
			ends: make([]int, hi-lo),
		}
	}
	return shards
}

// shardOf maps a node id to its shard index for the given shard layout.
func (nw *Network) shardOf(id NodeID) int {
	q := nw.shards[0].hi - nw.shards[0].lo
	if q <= 0 {
		return 0
	}
	s := int(id) / q
	if s >= len(nw.shards) {
		s = len(nw.shards) - 1
	}
	return s
}

// send buffers a message in the shard's outbox. Destination validation
// already happened in Network.send; liveness is stable for the whole
// cycle (lifecycle directives apply only at cycle start), so dropping
// here is equivalent to dropping at delivery.
func (sh *shardRunner) send(nw *Network, from, to NodeID, payload any, bytes int) error {
	sh.sent++
	sh.bytes += int64(bytes)
	if !nw.nodes[to].alive {
		sh.dropped++
		return nil
	}
	m := Message{From: from, Payload: payload, Bytes: bytes}
	if nw.cond != nil {
		// Safe from a worker: the Conditioner contract confines its
		// mutable state to the sender, like the node RNGs.
		v := nw.cond.Condition(from, to, nw.cycle, bytes)
		if v.Drop {
			sh.faultDrops++
			sh.dropped++
			return nil
		}
		sh.push(nw, to, m, v.Delay)
		if v.Duplicate {
			sh.duplicates++
			sh.push(nw, to, m, v.DupDelay)
		}
		return nil
	}
	sh.push(nw, to, m, 0)
	return nil
}

// push appends one copy of m for to to the bucket of its destination
// shard, visible delay cycles after the next one (a delay of 0 or less
// is none; a due cycle past the 32-bit range is clamped to its end). A
// full bucket doubles: past 256 entries append would grow it by ~1.25×,
// allocating several times its final size on the way.
func (sh *shardRunner) push(nw *Network, to NodeID, m Message, delay int) {
	if delay > 0 {
		sh.delayed++
	}
	d := nw.shardOf(to)
	b := sh.out[d]
	if len(b) == cap(b) {
		b = slices.Grow(b, len(b))
	}
	due := min(nw.cycle+1+max(delay, 0), math.MaxInt32)
	sh.out[d] = append(b, routed{to: int32(to), due: int32(due), msg: m})
}

// runCycleSharded activates all alive nodes, shard 0 on the calling
// goroutine and the others on workers, and then folds the shards' stats
// in ascending shard order. The messages stay in the buckets until the
// next cycle's deliver.
func (nw *Network) runCycleSharded() {
	for s := 1; s < len(nw.shards); s++ {
		nw.wg.Add(1)
		go func(sh *shardRunner) {
			defer nw.wg.Done()
			nw.activate(sh)
		}(&nw.shards[s])
	}
	nw.activate(&nw.shards[0])
	nw.wg.Wait()

	for s := range nw.shards {
		sh := &nw.shards[s]
		nw.stats.MessagesSent += sh.sent
		nw.stats.MessagesDropped += sh.dropped
		nw.stats.BytesSent += sh.bytes
		nw.stats.FaultDrops += sh.faultDrops
		nw.stats.Duplicates += sh.duplicates
		nw.stats.Delayed += sh.delayed
		sh.sent, sh.dropped, sh.bytes = 0, 0, 0
		sh.faultDrops, sh.duplicates, sh.delayed = 0, 0, 0
	}
}

// activate runs one activation of each alive, unstalled node of the
// shard, in ascending id order.
func (nw *Network) activate(sh *shardRunner) {
	for id := sh.lo; id < sh.hi; id++ {
		slot := &nw.nodes[id]
		if !slot.alive || slot.stalled {
			continue
		}
		// The slot's reusable context (see nodeSlot.ctx): each node
		// belongs to exactly one shard, so no other worker touches it.
		slot.ctx = Context{nw: nw, id: NodeID(id), shard: sh}
		slot.proto.NextCycle(&slot.ctx)
		slot.ctx = Context{} // invalidate escaped contexts
	}
}

// deliver builds every shard's inbox arena for the cycle about to run.
// Destination shards touch disjoint nodes, arenas and buckets, so with
// four shards or more they are built in parallel; the order within each
// is fixed by deliverInto alone.
func (nw *Network) deliver() {
	if len(nw.shards) < 4 {
		for d := range nw.shards {
			nw.deliverInto(d)
		}
		return
	}
	for d := range nw.shards {
		nw.wg.Add(1)
		go func(d int) {
			defer nw.wg.Done()
			nw.deliverInto(d)
		}(d)
	}
	nw.wg.Wait()
}

// deliverInto builds destination shard d's next arena by counting sort —
// one pass counting each node's messages, one scattering them — and
// makes every node's inbox the view of its run. The counting pass moves
// every bucket entry not due yet onto the shard's held list, after the
// entries it already holds. A node's messages go in this order: its
// undrained inbox (a stalled node, or a protocol that did not drain
// it), its due held entries in held-list order, and its due bucket
// entries in ascending source shard, then send order — the
// ascending-sender-id order. Each view is capped at its run, so an
// append to an inbox cannot reach a neighbour's messages. The previous
// arena is then cleared up to its used length and kept as the spare,
// the held list's delivered entries are cleared behind the ones it
// keeps, and the buckets are cleared and truncated.
func (nw *Network) deliverInto(d int) {
	sh := &nw.shards[d]
	nodes := nw.nodes[sh.lo:sh.hi]
	cycle := int32(nw.cycle)

	ends := sh.ends
	for k := range nodes {
		ends[k] = len(nodes[k].inbox)
	}
	for i := range sh.held {
		if sh.held[i].due <= cycle {
			ends[int(sh.held[i].to)-sh.lo]++
		}
	}
	for s := range nw.shards {
		b := nw.shards[s].out[d]
		for i := range b {
			if b[i].due > cycle {
				sh.held = append(sh.held, b[i])
			} else {
				ends[int(b[i].to)-sh.lo]++
			}
		}
	}
	total := 0
	for k, c := range ends {
		ends[k] = total
		total += c
	}

	next := slices.Grow(sh.spare[:0], total)[:total]
	for k := range nodes {
		ends[k] += copy(next[ends[k]:], nodes[k].inbox)
	}
	keep := sh.held[:0]
	for _, r := range sh.held {
		if r.due <= cycle {
			k := int(r.to) - sh.lo
			next[ends[k]] = r.msg
			ends[k]++
		} else {
			keep = append(keep, r)
		}
	}
	clear(sh.held[len(keep):])
	sh.held = keep
	for s := range nw.shards {
		b := nw.shards[s].out[d]
		for i := range b {
			if b[i].due <= cycle {
				k := int(b[i].to) - sh.lo
				next[ends[k]] = b[i].msg
				ends[k]++
			}
		}
		clear(b)
		nw.shards[s].out[d] = b[:0]
	}

	start := 0
	for k, end := range ends {
		nodes[k].inbox = next[start:end:end]
		start = end
	}
	clear(sh.arena)
	sh.arena, sh.spare = next, sh.arena[:0]
}
