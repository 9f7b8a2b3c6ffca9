package core

import "runtime"

// RunSharded executes the same cycle-driven simulation as Run, but each
// cycle's local phases — assignment and noise-share encryption, gossip
// push-sum emission and absorption, partial decryption service and
// quorum assembly — run in parallel across P shard workers, where P is
// Params.Workers (default GOMAXPROCS). Participants are partitioned into
// P contiguous shards; within a shard, activations run in ascending
// participant order, and the per-shard message queues and cost counters
// are merged through a deterministic reduction in stable shard order
// after a per-cycle barrier (see internal/p2p).
//
// # Determinism contract
//
// For any worker count — including counts exceeding the core count or
// the population — RunSharded produces a trace bit-identical to Run on
// the same inputs: identical centroids at every iteration, identical
// network statistics, identical operation counts. This holds because the
// simulation is bulk-synchronous (messages sent in cycle c are delivered
// in cycle c+1, so same-cycle activations are independent), every
// participant draws from RNG streams derived from (Seed, id) alone, and
// the reduction fixes the per-destination delivery order to ascending
// sender id regardless of scheduling. RunSharded is therefore the engine
// of choice for large reproducible experiments: same results as Run,
// wall-clock divided by the available cores.
func RunSharded(data [][]float64, params Params) (*Trace, error) {
	workers := params.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	_, tr, err := runCycles(data, params, workers)
	return tr, err
}
