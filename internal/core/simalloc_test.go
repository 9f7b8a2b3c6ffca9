package core

import (
	"runtime"
	"testing"
)

// simWideBytesCeiling is the bytes a sim-wide-shaped run may allocate
// per participant at N = 2,000 (see TestSimulatorAllocationCeiling):
// 1.10 × simWideBytes, the bound the benchmark holds alloc_mb to.
const simWideBytesCeiling = 1.10 * simWideBytes

// simWideBytes is the figure the ceiling is recorded at, in bytes per
// participant: the highest of 5,435 to 5,441 over six runs on
// linux/amd64, since the participant's decrypt state became one request
// and its struct shrank from 680 to 632 B (5,486 to 5,491 before; 6,350
// before the shards' scratch blocks; 7,318 to 7,320 before the p2p inbox
// arenas, when each node grew its own inbox and pending queues).
const simWideBytes = 5441.0

// TestSimulatorAllocationCeiling runs the sim-wide benchmark shape —
// CER, dim 4, K 2, 2 iterations, 12 gossip rounds, threshold 8, on the
// accounted backend — at N = 2,000 over 2 shard workers, and holds the
// bytes the whole run allocates per participant (runtime.MemStats
// TotalAlloc) under simWideBytesCeiling, so the simulator's allocation
// volume cannot creep back between benchmark runs.
func TestSimulatorAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instruments allocations")
	}
	if testing.Short() {
		t.Skip("N = 2000 run")
	}
	const n = 2000
	data := allocTestSeries(t, n, 4)
	params := Params{K: 2, Epsilon: 50, Iterations: 2, GossipRounds: 12, DecryptThreshold: 8, Seed: 1, Workers: 2}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	if _, err := Run(data, params); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	perParticipant := float64(ms.TotalAlloc-before) / n
	t.Logf("%.0f B allocated per participant (ceiling %.0f B, recorded at %.0f B)",
		perParticipant, simWideBytesCeiling, simWideBytes)
	if perParticipant > simWideBytesCeiling {
		t.Errorf("%.0f B allocated per participant, above the ceiling of %.0f B", perParticipant, simWideBytesCeiling)
	}
}
