package core

import (
	"math"
	"math/big"

	"chiaroscuro/internal/crypto/dkg"
	"chiaroscuro/internal/gossip"
	"chiaroscuro/internal/p2p"
	"chiaroscuro/internal/simnet"
	"chiaroscuro/internal/vecpool"
)

// adversary.go is the simulated attacker, the only reader of the fault
// plan's byzantine kinds (internal/simnet): garble, malform and replay
// senders wrap their participant's Env (byzantine), a noise-skew sender
// gets a scaled noise factor, and byzantine dealers script the key
// ceremony (dealerBehaviours). The participant runs the protocol alone.

// adversary returns the protocol the simulated network steps for pt: pt
// itself, with its noise factor skewed when the plan marks it a
// noise-skew sender, or pt inside a byzantine sender when the plan marks
// it garble, malform or replay. A fault-free plan returns pt unchanged.
func (r *runShared) adversary(pt *participant) p2p.Protocol {
	f := r.params.Faults.ByzantineOf(int(pt.id))
	switch {
	case f == nil:
		return pt
	case f.Kind == simnet.FaultSkewNoise:
		// The share is scaled before the clamp, so it stays
		// wire-plausible (honest receivers cannot tell): factor 0
		// freerides on everyone else's noise, large factors poison the
		// disclosed aggregate.
		pt.noiseFactor = f.Factor
		return pt
	default:
		return &byzantine{pt: pt, kind: f.Kind}
	}
}

// byzantine is a garble, malform or replay sender: its participant runs
// the honest protocol, stepped through an Env (the byzantine itself,
// around the activation's own) whose Send rewrites every outgoing gossip
// payload. The honest emission has already happened — the sender's own
// share halves either way — so the corruption enters the network without
// a privileged view of anyone else's state. Byzantine senders exist only
// under a fault plan, whose emissions get fresh storage: a replayed
// payload may be retained indefinitely.
type byzantine struct {
	Env
	pt   *participant
	kind simnet.FaultKind
	// replay caches the first gossip emission of a replay sender.
	replay *gossipPayload
}

// NextCycle implements p2p.Protocol.
func (b *byzantine) NextCycle(ctx *p2p.Context) { b.step(ctx, &b.pt.run.blocks[ctx.Shard()]) }

// step runs one activation of the participant against env, seen through
// the rewriting Send, in the scratch block sc.
func (b *byzantine) step(env Env, sc *scratch) {
	b.Env = env
	b.pt.step(b, sc)
	b.Env = nil
}

// Reset implements p2p.Resetter: the participant restarts, the sender's
// behaviour (and a replay sender's capture) does not.
func (b *byzantine) Reset() { b.pt.Reset() }

// Send rewrites an outgoing gossip payload and accounts the bytes of
// what actually leaves: a truncated malform vector is one cipher short.
func (b *byzantine) Send(to p2p.NodeID, payload any, bytes int) error {
	if pl, ok := payload.(*gossipPayload); ok {
		pl = b.rewrite(pl)
		payload, bytes = pl, b.pt.run.gossipBytes(pl)
	}
	return b.Env.Send(to, payload, bytes)
}

// rewrite corrupts one honest gossip payload according to the sender's
// kind, drawing any randomness from the participant's own RNG.
func (b *byzantine) rewrite(honest *gossipPayload) *gossipPayload {
	pt := b.pt
	r := pt.run
	forged := func(v []Cipher, w float64, h uint) *gossipPayload {
		return &gossipPayload{Iter: honest.Iter, Centroids: honest.Centroids, Msg: &gossip.Message[Cipher]{V: v, W: w, H: h}}
	}
	switch b.kind {
	case simnet.FaultGarble:
		// Structurally valid ciphertexts of random residues under the
		// true weight: passes every wire check, poisons the aggregate —
		// receivers survive via the decode plausibility bound.
		fake := make([]Cipher, len(honest.Msg.V))
		for i := range fake {
			v := new(big.Int).Rand(pt.rng, r.plainMod)
			ct, err := r.suite.Encrypt(v)
			if err != nil {
				ct = honest.Msg.V[i]
			}
			fake[i] = ct
		}
		return forged(fake, honest.Msg.W, honest.Msg.H)
	case simnet.FaultMalform:
		// Malformed messages, alternating the failure mode per round:
		// wrong vector lengths (rejected by the dimension check), and
		// right-length vectors of invalid values under a non-finite
		// weight (rejected by the share check, weight first).
		if pt.roundsDone%2 == 0 {
			return forged(honest.Msg.V[:len(honest.Msg.V)-1], honest.Msg.W, honest.Msg.H)
		}
		bad := make([]Cipher, len(honest.Msg.V))
		for i := 1; i < len(bad); i += 2 {
			bad[i] = big.NewInt(0) // out of range for DJ; even slots stay nil
		}
		return forged(bad, math.NaN(), 0)
	default: // simnet.FaultReplay
		// Capture the first emission, then replay it verbatim forever:
		// same-iteration replays inflate push-sum mass, later ones hit
		// the stale-iteration drop path.
		if b.replay == nil {
			b.replay = forged(append([]Cipher(nil), honest.Msg.V...), honest.Msg.W, honest.Msg.H)
			b.replay.Centroids = vecpool.CloneRows(honest.Centroids)
			return honest
		}
		return b.replay
	}
}

// dealerBehaviour is the ceremony behaviour that scripts each dealer
// fault kind.
var dealerBehaviour = map[simnet.FaultKind]dkg.Behaviour{
	simnet.FaultDealerBadShare:   dkg.BehaviourBadShare,
	simnet.FaultDealerEquivocate: dkg.BehaviourEquivocate,
	simnet.FaultDealerSilent:     dkg.BehaviourSilent,
}

// dealerBehaviours scripts the plan's dealer faults onto the key
// ceremony's 1-based dealers of a population of parties.
func dealerBehaviours(plan *simnet.Plan, parties int) map[int]dkg.Behaviour {
	byz := map[int]dkg.Behaviour{}
	for node := 0; node < parties; node++ {
		if f := plan.DealerFaultOf(node); f != nil {
			byz[node+1] = dealerBehaviour[f.Kind]
		}
	}
	return byz
}
