// Package simnet is the deterministic fault-injection layer of the
// simulation: a programmable, seeded network and participant fault model
// that sits between the p2p scheduler and the protocol code. It supplies
// the two hooks internal/p2p exposes:
//
//   - a Conditioner on the message path — per-message drop, duplicate
//     and delay decisions drawn from a hash of (seed, sender, receiver,
//     cycle, per-sender sequence number), never from shared RNG state,
//     so the same plan produces the same verdicts at any worker count;
//   - a FaultScheduler on the node lifecycle — crash-stop, crash-recovery
//     (with or without state loss) and laggards that stall for a window
//     of cycles, all triggered at fixed cycles, plus probabilistic churn
//     (per-cycle crash and rejoin draws from one seeded stream). Net owns
//     every node's lifecycle state; p2p only obeys its directives.
//
// Byzantine participant behaviours (garbled or malformed ciphertexts,
// replayed gossip messages, skewed noise shares) are declared here as
// part of the Plan but executed by internal/core, which owns the
// protocol state they corrupt.
//
// # Determinism contract
//
// Every fault decision is a pure function of the plan and the message's
// coordinates, except churn, whose draws come from one stream consumed
// in node-id order at cycle start. Link verdicts key on the sender's
// private send counter, which advances only inside the sender's own
// activation — exactly the isolation the p2p determinism contract
// already guarantees for node RNGs — and lifecycle directives run
// sequentially before any activation, so a run with a given (seed, plan)
// pair reproduces bit-identical trajectories at any worker count. Every
// discovered failure is therefore a replayable regression test:
// re-running the same scenario spec replays the same faults.
package simnet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"chiaroscuro/internal/p2p"
)

// FaultKind enumerates the participant fault behaviours of a Plan.
type FaultKind int

const (
	// FaultCrashStop takes the node down at AtCycle, permanently.
	FaultCrashStop FaultKind = iota + 1
	// FaultOutage takes the node down for Duration cycles starting at
	// AtCycle; Reset additionally wipes its protocol state on recovery
	// (permanent loss), otherwise it resumes where it stopped.
	FaultOutage
	// FaultLaggard keeps the node alive but skips its activations for
	// Duration cycles starting at AtCycle: it keeps receiving messages
	// and processes the backlog when it wakes up.
	FaultLaggard
	// FaultGarble makes the node a byzantine sender of structurally valid
	// but semantically garbage ciphertexts (fresh encryptions of random
	// residues) under its true push-sum weight.
	FaultGarble
	// FaultMalform makes the node a byzantine sender of malformed gossip
	// messages: wrong-length vectors, missing or out-of-range cipher
	// values, and non-finite push-sum weights — the inputs the wire
	// hardening must reject.
	FaultMalform
	// FaultReplay makes the node capture its first gossip emission and
	// re-send it verbatim forever after (stale iteration tags and
	// duplicated push-sum mass).
	FaultReplay
	// FaultSkewNoise scales the node's differential-privacy noise shares
	// by Factor (0 = privacy freerider, large = poisoner). The shares
	// stay inside the protocol's clamp bound, so honest receivers cannot
	// detect the skew.
	FaultSkewNoise
	// FaultDealerBadShare makes the node a byzantine DEALER in the DKG
	// key ceremony: it corrupts the share dealt to one victim and
	// withholds its justification, so the unanswered complaint
	// disqualifies it deterministically. Executed by internal/core's
	// ceremony driver; requires a DKG-backed run.
	FaultDealerBadShare
	// FaultDealerEquivocate makes the node a byzantine dealer that sends
	// different commitment vectors to different receivers; the digest
	// disagreement in the Response phase disqualifies it.
	FaultDealerEquivocate
	// FaultDealerSilent makes the node a byzantine dealer that deals to
	// nobody; the unanimous missing-deal verdict disqualifies it.
	FaultDealerSilent
)

// String names the kind as the scenario grammar spells it.
func (k FaultKind) String() string {
	switch k {
	case FaultCrashStop:
		return "crash"
	case FaultOutage:
		return "outage"
	case FaultLaggard:
		return "lag"
	case FaultGarble:
		return "garble"
	case FaultMalform:
		return "malform"
	case FaultReplay:
		return "replay"
	case FaultSkewNoise:
		return "noise"
	case FaultDealerBadShare:
		return "badshare"
	case FaultDealerEquivocate:
		return "equivocate"
	case FaultDealerSilent:
		return "silentdealer"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Byzantine reports whether the kind is a sender-side protocol
// corruption (executed by internal/core) rather than a lifecycle fault
// (executed by internal/p2p). Dealer faults are neither: they fire
// once, during the key ceremony, before the run proper starts.
func (k FaultKind) Byzantine() bool {
	switch k {
	case FaultGarble, FaultMalform, FaultReplay, FaultSkewNoise:
		return true
	}
	return false
}

// DealerFault reports whether the kind is a byzantine-dealer
// behaviour of the DKG key ceremony (executed by internal/core's
// ceremony driver before any protocol cycle runs).
func (k FaultKind) DealerFault() bool {
	switch k {
	case FaultDealerBadShare, FaultDealerEquivocate, FaultDealerSilent:
		return true
	}
	return false
}

// Lifecycle reports whether the kind is a node lifecycle fault
// (crash/outage/laggard) that Net.Directive applies, rather than one
// executed by core.
func (k FaultKind) Lifecycle() bool {
	return !k.Byzantine() && !k.DealerFault()
}

// NodeFault schedules one fault behaviour on one node.
type NodeFault struct {
	// Node is the participant/node id the fault applies to.
	Node int
	Kind FaultKind
	// AtCycle is when the fault triggers (lifecycle kinds only;
	// byzantine kinds are active for the whole run).
	AtCycle int
	// Duration is the length in cycles of an outage or laggard stall.
	Duration int
	// Reset makes an outage lose the node's protocol state on recovery.
	Reset bool
	// Factor is the noise-share multiplier of FaultSkewNoise.
	Factor float64
}

// LinkFaults is the probabilistic per-message fault model applied
// uniformly to every link.
type LinkFaults struct {
	// DropProb is the probability a message is silently lost.
	DropProb float64
	// DupProb is the probability a message is delivered twice.
	DupProb float64
	// DelayProb is the probability a delivered copy is delayed by a
	// uniform 1..MaxDelay extra cycles (messages overtaking each other is
	// how reordering arises).
	DelayProb float64
	// MaxDelay is the maximum extra delay in cycles (default 1 when
	// DelayProb > 0).
	MaxDelay int
}

func (l LinkFaults) active() bool {
	return l.DropProb > 0 || l.DupProb > 0 || l.DelayProb > 0
}

// churn is the probabilistic lifecycle model of the churn=P/R clause:
// each cycle an up node crashes with probability crash, and a node its
// churn draw took down rejoins with probability rejoin, keeping its
// protocol state.
type churn struct {
	crash, rejoin float64
}

func (c churn) active() bool { return c.crash > 0 || c.rejoin > 0 }

// Plan is a complete fault scenario: link-level probabilistic faults,
// churn, and scheduled and byzantine node faults. The zero Plan (and a
// nil *Plan) injects nothing.
type Plan struct {
	// Seed drives the per-message fault hashes and the churn stream. 0
	// means "derive from the run seed" (see NewNet).
	Seed  int64
	Links LinkFaults
	Nodes []NodeFault
	// churn is set only by the churn= clause of ParsePlan.
	churn churn
}

// Empty reports whether the plan (possibly nil) injects no fault at all.
func (p *Plan) Empty() bool {
	return p == nil || (!p.Links.active() && !p.churn.active() && len(p.Nodes) == 0)
}

// ChurnOnly reports whether churn is the plan's only fault: nodes crash
// and rejoin, but no message is held past the cycle after it was sent
// (a crash clears the queues it strands).
func (p *Plan) ChurnOnly() bool {
	return p != nil && p.churn.active() && !p.Links.active() && len(p.Nodes) == 0
}

// HasByzantine reports whether any node fault is a byzantine sender
// behaviour (which makes internal/core enable wire validation of
// incoming gossip).
func (p *Plan) HasByzantine() bool {
	if p == nil {
		return false
	}
	for _, f := range p.Nodes {
		if f.Kind.Byzantine() {
			return true
		}
	}
	return false
}

// hasSchedule reports whether the plan drives the node lifecycle: churn
// or any scheduled lifecycle fault.
func (p *Plan) hasSchedule() bool {
	if p == nil {
		return false
	}
	if p.churn.active() {
		return true
	}
	for _, f := range p.Nodes {
		if f.Kind.Lifecycle() {
			return true
		}
	}
	return false
}

// HasDealerFaults reports whether any node fault is a byzantine-dealer
// ceremony behaviour (which requires a DKG-backed run to execute).
func (p *Plan) HasDealerFaults() bool {
	if p == nil {
		return false
	}
	for _, f := range p.Nodes {
		if f.Kind.DealerFault() {
			return true
		}
	}
	return false
}

// DealerFaultOf returns the dealer-ceremony behaviour of a node, or
// nil. When a node carries several, the first declared wins.
func (p *Plan) DealerFaultOf(node int) *NodeFault {
	if p == nil {
		return nil
	}
	for i := range p.Nodes {
		if p.Nodes[i].Node == node && p.Nodes[i].Kind.DealerFault() {
			return &p.Nodes[i]
		}
	}
	return nil
}

// ByzantineOf returns the byzantine behaviour of a node, or nil. When a
// node carries several byzantine faults the first declared wins.
func (p *Plan) ByzantineOf(node int) *NodeFault {
	if p == nil {
		return nil
	}
	for i := range p.Nodes {
		if p.Nodes[i].Node == node && p.Nodes[i].Kind.Byzantine() {
			return &p.Nodes[i]
		}
	}
	return nil
}

// Validate checks the plan against a population of n nodes.
func (p *Plan) Validate(n int) error {
	if p == nil {
		return nil
	}
	l := p.Links
	for _, pr := range []struct {
		name string
		v    float64
	}{{"drop", l.DropProb}, {"dup", l.DupProb}, {"delay", l.DelayProb}} {
		if pr.v < 0 || pr.v > 1 || math.IsNaN(pr.v) {
			return fmt.Errorf("simnet: %s probability %v outside [0,1]", pr.name, pr.v)
		}
	}
	if l.MaxDelay < 0 {
		return fmt.Errorf("simnet: negative max delay %d", l.MaxDelay)
	}
	for i, f := range p.Nodes {
		if f.Node < 0 || f.Node >= n {
			return fmt.Errorf("simnet: fault %d targets node %d outside [0,%d)", i, f.Node, n)
		}
		switch f.Kind {
		case FaultCrashStop:
			if f.AtCycle < 0 {
				return fmt.Errorf("simnet: fault %d: negative cycle %d", i, f.AtCycle)
			}
		case FaultOutage, FaultLaggard:
			if f.AtCycle < 0 || f.Duration < 1 {
				return fmt.Errorf("simnet: fault %d: need cycle >= 0 and duration >= 1", i)
			}
		case FaultGarble, FaultMalform, FaultReplay,
			FaultDealerBadShare, FaultDealerEquivocate, FaultDealerSilent:
			// No parameters.
		case FaultSkewNoise:
			if f.Factor < 0 || math.IsNaN(f.Factor) || math.IsInf(f.Factor, 0) {
				return fmt.Errorf("simnet: fault %d: noise factor %v must be finite and >= 0", i, f.Factor)
			}
		default:
			return fmt.Errorf("simnet: fault %d: unknown kind %d", i, int(f.Kind))
		}
	}
	return nil
}

// Net binds a validated Plan to a population: it implements both
// p2p.Conditioner and p2p.FaultScheduler. One Net serves exactly one
// run — its per-sender sequence counters, lifecycle states and churn
// stream are part of the deterministic replay state.
type Net struct {
	plan *Plan
	seed int64
	// seq[i] counts node i's sends. Only node i's own activation
	// advances it (one goroutine at a time under every scheduler), so no
	// synchronization is needed — the same isolation argument as the
	// per-node RNGs of internal/p2p.
	seq []uint64
	// perNode[i] indexes the lifecycle faults of node i.
	perNode [][]*NodeFault
	// life[i] is node i's lifecycle state, advanced by Directive.
	life []lifecycle
	// churn draws the churn= clause's crash and rejoin coins; nil
	// without one.
	churn *rand.Rand
}

// lifecycle is one node's state between Directive calls.
type lifecycle struct {
	// down is the node's state after its last directive.
	down bool
	// schedDown records that the current outage was ordered by the
	// schedule, so a churn draw does not revive the node mid-outage;
	// resetDue latches a scheduled Reset seen while down, reported at
	// the eventual revival.
	schedDown bool
	resetDue  bool
}

// NewNet validates plan for a population of n and binds it. Unless the
// plan pins its own seed, the fault hashes are seeded with runSeed+2 and
// the churn stream with runSeed+1.
func NewNet(plan *Plan, n int, runSeed int64) (*Net, error) {
	if plan == nil {
		return nil, errors.New("simnet: nil plan")
	}
	if err := plan.Validate(n); err != nil {
		return nil, err
	}
	seed, churnSeed := runSeed+2, runSeed+1
	if plan.Seed != 0 {
		seed, churnSeed = plan.Seed, plan.Seed
	}
	net := &Net{
		plan:    plan,
		seed:    seed,
		seq:     make([]uint64, n),
		perNode: make([][]*NodeFault, n),
		life:    make([]lifecycle, n),
	}
	if plan.churn.active() {
		net.churn = rand.New(rand.NewSource(churnSeed))
	}
	for i := range plan.Nodes {
		f := &plan.Nodes[i]
		if f.Kind.Lifecycle() {
			net.perNode[f.Node] = append(net.perNode[f.Node], f)
		}
	}
	return net, nil
}

// HasLinkFaults reports whether the bound plan conditions messages at
// all (engines skip the Conditioner hook entirely otherwise).
func (net *Net) HasLinkFaults() bool { return net.plan.Links.active() }

// HasSchedule reports whether the bound plan drives the node lifecycle
// (churn or scheduled lifecycle faults).
func (net *Net) HasSchedule() bool { return net.plan.hasSchedule() }

// splitmix64 is the finalizer behind every per-message fault draw.
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// msgStream is a tiny stateless PRNG over one message's coordinates:
// successive draws are successive splitmix64 outputs of the mixed key.
type msgStream struct{ state uint64 }

func (s *msgStream) next() uint64 {
	s.state = splitmix64(s.state)
	return s.state
}

// unit draws a uniform float64 in [0,1).
func (s *msgStream) unit() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// Condition implements p2p.Conditioner: the verdict is a pure function
// of (seed, from, to, cycle, sender-sequence). Invoked on the sender's
// goroutine; see the Net.seq comment for why the counter is unsynced.
func (net *Net) Condition(from, to p2p.NodeID, cycle, bytes int) p2p.Verdict {
	s := net.seq[from]
	net.seq[from]++
	key := splitmix64(uint64(net.seed) ^ splitmix64(uint64(from)+1))
	key ^= splitmix64(uint64(to)+1) + splitmix64(uint64(cycle)+1) + s
	st := msgStream{state: key}
	l := net.plan.Links
	var v p2p.Verdict
	if l.DropProb > 0 && st.unit() < l.DropProb {
		v.Drop = true
		return v
	}
	maxDelay := l.MaxDelay
	if maxDelay < 1 {
		maxDelay = 1
	}
	if l.DelayProb > 0 && st.unit() < l.DelayProb {
		v.Delay = 1 + int(st.next()%uint64(maxDelay))
	}
	if l.DupProb > 0 && st.unit() < l.DupProb {
		v.Duplicate = true
		if l.DelayProb > 0 && st.unit() < l.DelayProb {
			v.DupDelay = 1 + int(st.next()%uint64(maxDelay))
		}
	}
	return v
}

// Directive implements p2p.FaultScheduler. p2p calls it once per node
// per cycle, in id order, at cycle start; it advances the node's
// lifecycle by the schedule first and its churn draw second:
//
//   - the schedule takes the node down inside a crash or outage window
//     and revives it when the window ends, reporting Reset if a :reset
//     window covered the outage;
//   - then an up node draws for a crash, and a down node draws for a
//     rejoin that only a churn-downed node (not a scheduler-downed one)
//     takes;
//   - Stall is the scheduled stall of a node that was up after its
//     schedule and is still up after its draw.
//
// A revival reports Reset even when the churn draw takes the node down
// again in the same cycle: its state was lost with that outage.
func (net *Net) Directive(id p2p.NodeID, cycle int) p2p.NodeDirective {
	s := net.schedule(id, cycle)
	lc := &net.life[id]
	var d p2p.NodeDirective
	if s.Down {
		lc.down, lc.schedDown = true, true
		lc.resetDue = lc.resetDue || s.Reset
	} else if lc.schedDown {
		lc.down, lc.schedDown = false, false
		d.Reset = s.Reset || lc.resetDue
		lc.resetDue = false
	}
	up := !lc.down
	if net.churn != nil {
		// Every node draws, so the stream stays aligned whatever the
		// schedule does.
		if !lc.down {
			lc.down = net.churn.Float64() < net.plan.churn.crash
		} else if net.churn.Float64() < net.plan.churn.rejoin && !lc.schedDown {
			lc.down = false
		}
	}
	d.Down = lc.down
	d.Stall = up && !lc.down && s.Stall
	return d
}

// schedule is the plan's scheduled lifecycle state of a node at a
// cycle: a pure function of the plan, with Reset marking every cycle of
// a :reset outage window through its recovery boundary.
func (net *Net) schedule(id p2p.NodeID, cycle int) p2p.NodeDirective {
	var d p2p.NodeDirective
	for _, f := range net.perNode[id] {
		switch f.Kind {
		case FaultCrashStop:
			if cycle >= f.AtCycle {
				d.Down = true
			}
		case FaultOutage:
			if cycle >= f.AtCycle && cycle < f.AtCycle+f.Duration {
				d.Down = true
			}
			// Reset is scoped to this outage's own window (including its
			// recovery boundary): a node that also has a state-kept
			// outage must not lose state when *that* window ends.
			// Directive latches Reset seen while down, so a :reset
			// window swallowed by a longer overlapping outage still
			// wipes state at the eventual recovery.
			if f.Reset && cycle >= f.AtCycle && cycle <= f.AtCycle+f.Duration {
				d.Reset = true
			}
		case FaultLaggard:
			if cycle >= f.AtCycle && cycle < f.AtCycle+f.Duration {
				d.Stall = true
			}
		}
	}
	return d
}

var (
	_ p2p.Conditioner    = (*Net)(nil)
	_ p2p.FaultScheduler = (*Net)(nil)
)
