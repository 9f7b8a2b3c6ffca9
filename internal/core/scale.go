package core

import (
	"fmt"
	"runtime"
)

// GossipAllocReport is the outcome of MeasureGossipAllocs: the observed
// allocation profile of steady-state gossip cycles on a live run.
type GossipAllocReport struct {
	// AllocsPerCycle is the average number of heap objects allocated per
	// network cycle across the measured window (0 on the in-place hot
	// path once warm).
	AllocsPerCycle float64
	// BytesPerCycle is the average number of heap bytes allocated per
	// network cycle across the measured window.
	BytesPerCycle float64
	// Cycles is the number of measured cycles.
	Cycles int
	// Population is the run's participant count (the per-cycle figures
	// cover ALL participants' activations, not one).
	Population int
}

// DecryptAllocReport is the outcome of MeasureDecryptAllocs: the
// observed allocation profile of decrypt-classified cycles across a
// complete run.
type DecryptAllocReport struct {
	// AllocsPerCycle is the average number of heap objects allocated per
	// decrypt-classified network cycle.
	AllocsPerCycle float64
	// BytesPerCycle is the average number of heap bytes allocated per
	// decrypt-classified network cycle.
	BytesPerCycle float64
	// DecryptCycles is the number of measured (decrypt-classified)
	// cycles.
	DecryptCycles int
	// Population is the run's participant count.
	Population int
}

// MeasureDecryptAllocs builds a cycle-driven run over data (sequential
// unless Params.Workers > 1) and executes it to completion, classifying
// every cycle by its dominant phase (the same classification
// Trace.Phases uses) and accumulating runtime.MemStats deltas for the
// decrypt-classified cycles only. It reports the per-cycle average over
// the whole run (bench/'s core.decrypt_allocs_per_cycle;
// TestMeasureDecryptAllocs holds it under a ceiling), which includes
// the first iteration laying out each participant's decrypt storage and
// the disclosed records. The steady state itself is absolute, proved by
// TestDecryptCycleZeroAlloc: on the accounted backend a warmed decrypt
// cycle allocates nothing but one record per participant completing in
// it.
func MeasureDecryptAllocs(data [][]float64, params Params) (*DecryptAllocReport, error) {
	pop, err := openPopulation(data, params)
	if err != nil {
		return nil, err
	}
	defer pop.close()
	d, err := newProbeDriver(pop)
	if err != nil {
		return nil, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	var allocs, bytes uint64
	cycles := 0
	limit := pop.p.maxCycles()
	for cycle := 0; cycle < limit; cycle++ {
		decrypt := d.dominantPhase() == phaseDecrypt
		if decrypt {
			runtime.ReadMemStats(&before)
		}
		d.nw.RunCycle()
		if decrypt {
			runtime.ReadMemStats(&after)
			allocs += after.Mallocs - before.Mallocs
			bytes += after.TotalAlloc - before.TotalAlloc
			cycles++
		}
		if d.allAliveDone() {
			break
		}
	}
	if cycles == 0 {
		return nil, fmt.Errorf("core: run finished without any decrypt-classified cycles")
	}
	return &DecryptAllocReport{
		AllocsPerCycle: float64(allocs) / float64(cycles),
		BytesPerCycle:  float64(bytes) / float64(cycles),
		DecryptCycles:  cycles,
		Population:     len(data),
	}, nil
}

// MeasureGossipAllocs builds a cycle-driven run over data (sequential
// unless Params.Workers > 1), warms it into gossip steady state, and
// measures the heap allocations of whole network cycles — every
// participant's emit and absorb — via runtime.MemStats deltas. It is
// the measurement bench/ prints beside its per-layer table; the in-core
// test suite proves the same property with testing.AllocsPerRun.
//
// params.GossipRounds must exceed warm+measure+1 so the whole window
// stays inside the first iteration's gossip phase; the run is abandoned
// after measuring (no trace is built).
func MeasureGossipAllocs(data [][]float64, params Params, warm, measure int) (*GossipAllocReport, error) {
	if warm < 1 || measure < 1 {
		return nil, fmt.Errorf("core: invalid measurement window (warm=%d, measure=%d)", warm, measure)
	}
	pop, err := openPopulation(data, params)
	if err != nil {
		return nil, err
	}
	defer pop.close()
	if rounds := pop.p.GossipRounds; rounds <= warm+measure+1 {
		return nil, fmt.Errorf("core: GossipRounds=%d too short for a warm=%d measure=%d window", rounds, warm, measure)
	}
	d, err := newProbeDriver(pop)
	if err != nil {
		return nil, err
	}
	// Cycle 0 runs the assignment step; the warm cycles that follow let
	// every amortized buffer (inboxes, batch scratch, emit arenas) reach
	// its steady capacity.
	for i := 0; i < warm+1; i++ {
		d.nw.RunCycle()
	}
	// Pin to one P, flush the heap, and run one more warmed cycle after
	// the collection so GC-dropped caches are re-primed outside the
	// window (the same discipline as testing.AllocsPerRun, which runs f
	// once before measuring).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	d.nw.RunCycle()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < measure; i++ {
		d.nw.RunCycle()
	}
	runtime.ReadMemStats(&after)
	return &GossipAllocReport{
		AllocsPerCycle: float64(after.Mallocs-before.Mallocs) / float64(measure),
		BytesPerCycle:  float64(after.TotalAlloc-before.TotalAlloc) / float64(measure),
		Cycles:         measure,
		Population:     len(data),
	}, nil
}

// newProbeDriver binds a measurement probe's one run over pop with
// full-population queue and batch hints: no in-degree spike can grow a
// buffer, so a measurement proves zero rather than amortized-zero (the
// preallocation is O(n²) — measurement scales only).
func newProbeDriver(pop *population) (*cycleDriver, error) {
	r, err := pop.bind(pop.p)
	if err != nil {
		return nil, err
	}
	return newCycleDriver(r, r.population)
}
