package p2p

// shard.go implements the cycle scheduler: the node id space is
// partitioned into contiguous shards, shard 0 is activated on the
// calling goroutine and every other shard on a worker goroutine, each
// activating its alive nodes in ascending id order, and the messages
// they send are buffered in per-(source shard, destination shard)
// buckets. After the barrier, buckets are merged into the destination
// pending queues in stable (source-shard, send-order) order — which,
// because shards are contiguous and activations within a shard run in
// id order, is the ascending-sender-id delivery order at every shard
// count. Combined with the per-node RNGs (see the package determinism
// contract in p2p.go), one shard and k shards run bit-identical cycles;
// with one shard (Workers 0 or 1) no goroutine is started.
//
// All buffers are retained and reused across cycles (truncated, never
// reallocated), so a steady-state cycle allocates nothing on the
// messaging path.

// routed is a buffered message together with its destination.
type routed struct {
	to  NodeID
	msg Message
}

// delayedRouted is a Conditioner-delayed buffered message together with
// its destination and delivery cycle.
type delayedRouted struct {
	to  NodeID
	due int
	msg Message
}

// shardRunner is one worker's slice of the population plus its private
// outbox buckets and cost counters for the cycle in flight.
type shardRunner struct {
	lo, hi int // node id range [lo, hi)
	// out[d] buffers the messages this shard's nodes sent to nodes of
	// destination shard d during the current cycle, in send order.
	out [][]routed
	// delayedOut[d] buffers Conditioner-delayed messages the same way;
	// merged into the destinations' delayed queues at the barrier.
	delayedOut [][]delayedRouted
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
// size. A positive hint preallocates every bucket for hint messages per
// destination node (see Options.QueueHint).
func makeShards(n, p, hint int) []shardRunner {
	q := (n + p - 1) / p
	shards := make([]shardRunner, p)
	for s := range shards {
		lo := min(s*q, n)
		hi := min(lo+q, n)
		shards[s] = shardRunner{lo: lo, hi: hi, out: make([][]routed, p), delayedOut: make([][]delayedRouted, p)}
	}
	if hint > 0 {
		for s := range shards {
			for d := range shards {
				shards[s].out[d] = make([]routed, 0, hint*(shards[d].hi-shards[d].lo))
			}
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
// here is equivalent to dropping at merge time.
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
		sh.enqueue(nw, to, m, v.Delay)
		if v.Duplicate {
			sh.duplicates++
			sh.enqueue(nw, to, m, v.DupDelay)
		}
		return nil
	}
	d := nw.shardOf(to)
	sh.out[d] = append(sh.out[d], routed{to: to, msg: m})
	return nil
}

// enqueue buffers one delivered copy in the regular or delayed bucket
// for its destination shard.
func (sh *shardRunner) enqueue(nw *Network, to NodeID, m Message, delay int) {
	d := nw.shardOf(to)
	if delay <= 0 {
		sh.out[d] = append(sh.out[d], routed{to: to, msg: m})
		return
	}
	sh.delayed++
	sh.delayedOut[d] = append(sh.delayedOut[d], delayedRouted{to: to, due: nw.cycle + 1 + delay, msg: m})
}

// runCycleSharded activates all alive nodes, shard 0 on the calling
// goroutine and the others on workers, and then performs the
// deterministic reduction: stats and outboxes are folded in ascending
// shard order.
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

	// Deterministic merge. The destination loop can run in parallel
	// (distinct d touch disjoint pending queues), but the source loop
	// order is what defines the canonical ascending-sender-id delivery
	// order and must stay ascending.
	if len(nw.shards) >= 4 {
		for d := range nw.shards {
			nw.wg.Add(1)
			go func(d int) {
				defer nw.wg.Done()
				nw.mergeInto(d)
			}(d)
		}
		nw.wg.Wait()
	} else {
		for d := range nw.shards {
			nw.mergeInto(d)
		}
	}
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

// mergeInto appends, in ascending source-shard order, every message
// destined to shard d onto its destination's pending (or delayed)
// queue, then resets the buckets for reuse.
func (nw *Network) mergeInto(d int) {
	for s := range nw.shards {
		bucket := nw.shards[s].out[d]
		for i := range bucket {
			r := &bucket[i]
			slot := &nw.nodes[r.to]
			slot.pending = append(slot.pending, r.msg)
		}
		// Clear payload references so pooled buckets do not pin large
		// gossip payloads across cycles, then truncate for reuse.
		for i := range bucket {
			bucket[i] = routed{}
		}
		nw.shards[s].out[d] = bucket[:0]

		dBucket := nw.shards[s].delayedOut[d]
		for i := range dBucket {
			r := &dBucket[i]
			slot := &nw.nodes[r.to]
			slot.delayed = append(slot.delayed, delayedMessage{due: r.due, msg: r.msg})
		}
		for i := range dBucket {
			dBucket[i] = delayedRouted{}
		}
		nw.shards[s].delayedOut[d] = dBucket[:0]
	}
}
