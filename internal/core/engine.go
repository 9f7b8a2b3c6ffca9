package core

import (
	"errors"
	"time"

	"chiaroscuro/internal/p2p"
	"chiaroscuro/internal/simnet"
)

// engine.go drives the cycle-driven simulator. The protocol itself
// lives in participant.step (one activation against any Env); the
// simulator steps every participant once per cycle on the internal/p2p
// network, across Params.Workers shard workers with a deterministic
// reduction — bit-identical at any worker count (see Run and the
// internal/p2p determinism contract).
//
// The real deployment, one process per participant over TCP, is the
// networked daemon (internal/transport): it steps one Node per process
// against its own Env and discloses the same trajectory.
//
// cycleDriver owns the simulated network of the run it is bound to,
// steps it until every alive participant has terminated, and assembles
// the trace. A one-shot run binds a new driver once; a RunSession keeps
// one driver and binds it again for every window, over the same
// network, participants, storage and scratch blocks.
type cycleDriver struct {
	shared       *runShared
	nw           *p2p.Network
	participants []*participant
	// blocks are the shards' scratch blocks (runShared.blocks), one for
	// each shard the network can have: max(1, Workers), capped at the
	// population like the network's shard count (which may be capped
	// lower; a surplus block is never bound and stays empty).
	blocks []scratch
}

// newCycleDriver builds a driver bound to r (see bind).
func newCycleDriver(r *runShared) (*cycleDriver, error) {
	d := &cycleDriver{}
	if err := d.bind(r); err != nil {
		return nil, err
	}
	return d, nil
}

// bind binds the driver to the run r: one participant per series,
// scheduled on r.params.Workers shard workers. The first bind lays out
// the participants and builds the network around them; every bind
// (re)binds each participant in place (runShared.bindParticipant), and
// a later one resets the network to the run's seed (p2p.Network.Reset)
// instead of building it, so it keeps the first bind's shard layout and
// queue capacity, and it releases the scratch blocks, which bind to the
// new run at their first activation. Either way the run steps exactly
// as on a new driver. A driver is bound again only to a fault-free run
// over a population of the same size, after a fault-free run.
func (d *cycleDriver) bind(r *runShared) error {
	n := r.population
	if d.nw != nil && (n != len(d.participants) || !r.params.Faults.Empty() || !d.shared.params.Faults.Empty()) {
		return errors.New("core: a cycle driver is bound again only to a fault-free run over its own population")
	}
	if d.blocks == nil {
		d.blocks = make([]scratch, min(max(1, r.params.Workers), n))
	}
	for i := range d.blocks {
		d.blocks[i].release()
	}
	r.blocks = d.blocks
	if d.participants == nil {
		slab := make([]participant, n)
		d.participants = make([]*participant, n)
		for i := range slab {
			d.participants[i] = &slab[i]
		}
	}
	for i, pt := range d.participants {
		r.bindParticipant(pt, p2p.NodeID(i))
	}
	if d.nw != nil {
		if err := d.nw.Reset(r.params.Seed + 1); err != nil {
			return err
		}
	} else {
		opts := p2p.Options{Seed: r.params.Seed + 1, Workers: r.params.Workers}
		var err error
		opts.Conditioner, opts.Faults, err = bindFaults(r.params, n)
		if err != nil {
			return err
		}
		factory := func(id p2p.NodeID) p2p.Protocol { return r.adversary(d.participants[id]) }
		if d.nw, err = p2p.New(n, factory, opts); err != nil {
			return err
		}
	}
	d.shared = r
	r.provision(n)
	return nil
}

// bindFaults binds the run's fault plan for a population of n,
// returning the message-path and lifecycle hooks of the cycle-driven
// network. Hooks stay nil — and the hot paths untouched — for the fault
// classes the plan does not use; an empty plan binds nothing at all.
func bindFaults(p Params, n int) (p2p.Conditioner, p2p.FaultScheduler, error) {
	if p.Faults.Empty() {
		return nil, nil, nil
	}
	net, err := simnet.NewNet(p.Faults, n, p.Seed)
	if err != nil {
		return nil, nil, err
	}
	var cond p2p.Conditioner
	var sched p2p.FaultScheduler
	if net.HasLinkFaults() {
		cond = net
	}
	if net.HasSchedule() {
		sched = net
	}
	return cond, sched, nil
}

// PhaseProfile is the per-phase breakdown of a cycle-driven run's wall
// clock: each cycle is classified by the dominant phase of the alive,
// unterminated participants before it runs, then its elapsed time lands
// in that bucket. The timings are wall-clock observations (not part of
// the deterministic trajectory); the cycle counts are deterministic.
type PhaseProfile struct {
	AssignCycles  int
	GossipCycles  int
	DecryptCycles int
	AssignTime    time.Duration
	GossipTime    time.Duration
	DecryptTime   time.Duration
}

// run steps the network cycle by cycle until every alive participant has
// terminated (or the cycle bound is hit), then builds the trace.
func (d *cycleDriver) run() (*Trace, error) {
	limit := d.shared.params.maxCycles()
	var prof PhaseProfile
	for cycle := 0; cycle < limit; cycle++ {
		ph := d.dominantPhase()
		start := time.Now()
		d.nw.RunCycle()
		elapsed := time.Since(start)
		switch ph {
		case phaseAssign:
			prof.AssignCycles++
			prof.AssignTime += elapsed
		case phaseGossip:
			prof.GossipCycles++
			prof.GossipTime += elapsed
		case phaseDecrypt:
			prof.DecryptCycles++
			prof.DecryptTime += elapsed
		}
		if d.allAliveDone() {
			break
		}
	}
	tr, err := buildTrace(d.shared.series.Rows(), d.shared.params, d.participants, d.nw.Cycle(), d.nw.Stats(), d.shared.suite)
	if err != nil {
		return nil, err
	}
	tr.Phases = prof
	return tr, nil
}

// dominantPhase classifies the upcoming cycle by the most common phase
// among alive, unterminated participants. Ties prefer decrypt, then
// gossip — the expensive phases — so a mixed cycle's cost is charged to
// the bucket doing the heavy work.
func (d *cycleDriver) dominantPhase() phase {
	var counts [3]int
	for i := range d.participants {
		if !d.nw.Alive(p2p.NodeID(i)) {
			continue
		}
		if ph := d.participants[i].phase; ph != phaseDone {
			counts[ph]++
		}
	}
	best := phaseDecrypt
	if counts[phaseGossip] > counts[best] {
		best = phaseGossip
	}
	if counts[phaseAssign] > counts[best] {
		best = phaseAssign
	}
	return best
}

// allAliveDone reports whether every alive participant has terminated.
// A direct loop (no closure) keeps the per-cycle termination check
// allocation-free.
func (d *cycleDriver) allAliveDone() bool {
	for i := range d.participants {
		if d.nw.Alive(p2p.NodeID(i)) && d.participants[i].phase != phaseDone {
			return false
		}
	}
	return true
}
