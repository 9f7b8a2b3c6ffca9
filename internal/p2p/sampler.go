package p2p

import (
	"math/rand"

	"chiaroscuro/internal/compactrng"
)

// Sampler reproduces one node's peer-sampling randomness outside the
// simulation engine — the daemon-side half of the determinism contract.
// A networked participant (internal/transport) that samples its gossip
// and decryption peers through a Sampler seeded like the engine seeds
// its node slots draws the exact same peer sequence the simulated
// participant draws, which is what lets the multi-process conformance
// harness demand bit-identical trajectories across the network
// boundary.
//
// The Sampler models the engine's idealized membership view: a fully
// connected population of n nodes, all alive. (A simulation with churn
// or a fault plan filters dead peers inside the draw loop, which makes
// the stream depend on global liveness state no single daemon can see;
// the conformance contract therefore covers fault-free runs, and the
// transport layer handles departed peers by dropping sends, not by
// re-sampling.)
type Sampler struct {
	rng *rand.Rand
	src *compactrng.Source
	id  NodeID
	n   int
}

// NewSampler builds the sampler for node id of a population of n, from
// the same run seed the engine was (or would be) given: the per-node
// stream derivation is identical to the engine's.
func NewSampler(seed int64, id NodeID, n int) *Sampler {
	src := compactrng.New(nodeSeed(seed, int(id)))
	return &Sampler{
		rng: rand.New(src),
		src: src,
		id:  id,
		n:   n,
	}
}

// State returns the sampler's complete RNG state (one splitmix64 word).
// The rand.Rand draw paths the sampler uses (Intn over a Source64)
// buffer nothing, so the source state alone determines every future
// draw — the property the daemon's crash checkpoints rely on.
func (s *Sampler) State() uint64 { return s.src.State() }

// SetState restores a state obtained from State: the sampler continues
// the exact peer-draw sequence the checkpointed one would have drawn.
func (s *Sampler) SetState(v uint64) { s.src.SetState(v) }

// RandomPeer draws a uniform peer, excluding the node itself — the same
// rejection loop (and therefore the same RNG consumption) as the
// engine's all-alive draw.
func (s *Sampler) RandomPeer() (NodeID, bool) {
	if s.n < 2 {
		return -1, false
	}
	for {
		j := NodeID(s.rng.Intn(s.n))
		if j != s.id {
			return j, true
		}
	}
}

// RandomPeers draws up to k distinct peers: repeated RandomPeer calls
// with a seen-set and a bounded attempt budget of 16·(k+1) draws.
func (s *Sampler) RandomPeers(k int) []NodeID {
	out := make([]NodeID, 0, k)
	seen := map[NodeID]bool{s.id: true}
	for attempts := 0; len(out) < k && attempts < 16*(k+1); attempts++ {
		p, ok := s.RandomPeer()
		if !ok {
			break
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}
