package core

import (
	"time"

	"chiaroscuro/internal/p2p"
	"chiaroscuro/internal/simnet"
)

// engine.go drives the cycle-driven simulator. The protocol itself
// lives in participant.step (one activation against any Env); the
// simulator steps every participant once per cycle on the internal/p2p
// network, sequentially or across Params.Workers shard workers with a
// deterministic reduction — bit-identical at any worker count (see Run
// and the internal/p2p determinism contract).
//
// The real deployment, one process per participant over TCP, is the
// networked daemon (internal/transport): it steps one Node per process
// against its own Env and discloses the same trajectory.
//
// cycleDriver owns the simulated network of one bound run, steps it
// until every alive participant has terminated, and assembles the
// trace.
type cycleDriver struct {
	shared       *runShared
	nw           *p2p.Network
	participants []*participant
}

// newCycleDriver builds the simulated network around one participant per
// series of the bound run, scheduled on r.params.Workers shard workers.
// hint, when positive, preallocates the per-node message queues and
// every participant's batch scratch for that many messages
// (allocation-measurement harnesses only; ordinary runs pass 0).
func newCycleDriver(r *runShared, hint int) (*cycleDriver, error) {
	n := r.population
	r.batchHint = hint
	participants := make([]*participant, n)
	factory := func(id p2p.NodeID) p2p.Protocol {
		pt := r.newParticipant(id)
		participants[id] = pt
		return pt
	}
	opts := p2p.Options{
		Seed:      r.params.Seed + 1,
		Workers:   r.params.Workers,
		QueueHint: hint,
		Churn: p2p.ChurnModel{
			CrashProb:     r.params.ChurnCrashProb,
			RejoinProb:    r.params.ChurnRejoinProb,
			ResetOnRejoin: r.params.ChurnResetOnRejoin,
		},
	}
	var err error
	opts.Conditioner, opts.Faults, err = bindFaults(r.params, n)
	if err != nil {
		return nil, err
	}
	nw, err := p2p.New(n, factory, opts)
	if err != nil {
		return nil, err
	}
	r.provision(n)
	return &cycleDriver{shared: r, nw: nw, participants: participants}, nil
}

// faultSeedOffset derives the fault-hash seed from the run seed (the
// p2p simulation uses Seed+1; the plan may override with its own Seed).
const faultSeedOffset = 2

// bindFaults binds the run's fault plan for a population of n,
// returning the message-path and lifecycle hooks of the cycle-driven
// network. Hooks stay nil — and the hot paths untouched — for the fault
// classes the plan does not use; an empty plan binds nothing at all.
func bindFaults(p Params, n int) (p2p.Conditioner, p2p.FaultScheduler, error) {
	if p.Faults.Empty() {
		return nil, nil, nil
	}
	net, err := simnet.NewNet(p.Faults, n, p.Seed+faultSeedOffset)
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
