package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"chiaroscuro/internal/p2p"
)

// Node is one Chiaroscuro participant packaged for an external
// execution environment — the seam the networked daemon
// (internal/transport) drives. Every daemon process opens the identical
// population and binds the identical run from the shared (data, params)
// configuration, then steps only its own participant; the transport's
// epoch clock supplies the Env. Because the participant logic, the RNG
// derivation and the peer sampler are byte-for-byte the ones the
// in-process simulator uses, a fault-free networked run discloses the
// exact trajectory the sequential engine discloses at the same seed —
// the property the conformance harness asserts.
type Node struct {
	pop *population // opened by NewNode, closed by Close
	pt  *participant
	fp  uint64 // Fingerprint, digested once: every snapshot carries it

	// vecHead and vecWidth size an encoded cipher vector (vectorShape).
	vecHead, vecWidth int
	// slabs are the gossip receive slabs this node minted (gossipSlab),
	// at most population−1; freeSlabs the ones no decoded payload holds.
	// Step frees them all when it returns.
	slabs, freeSlabs [][]Cipher
}

// NewNode builds the participant with the given id for a networked run
// over the full population's data. All processes must pass identical
// (data, params); Fingerprint lets the transport handshake detect when
// they did not.
//
// Networked runs are the determinism-contract configuration: no fault
// plan, churn included (fault injection lives in the simulation engines,
// where a global scheduler exists to replay it), and a cipher suite
// whose artifacts are wire-portable — the accounted plain backend, or
// the Damgård–Jurik backend keyed by a distributed key ceremony: the
// transport runs the DKG over the mesh before the first epoch and hands
// each process its own share as Params.DJMaterial, so no daemon ever
// holds the dealer-side key.
func NewNode(data [][]float64, params Params, id int) (*Node, error) {
	if id < 0 || id >= len(data) {
		return nil, fmt.Errorf("core: node id %d outside population [0, %d)", id, len(data))
	}
	if !params.Faults.Empty() {
		return nil, errors.New("core: networked runs do not support fault plans")
	}
	if params.Backend == BackendDamgardJurik && params.DJMaterial == nil {
		return nil, errors.New("core: Damgård–Jurik daemons must run the key ceremony first (Params.DJMaterial)")
	}
	// The wire carries a share's halving exponent in one byte
	// (EncodePayload), and the exponent never passes the halving budget.
	if d := params.withDefaults(len(data)); d.preScaleBits() > math.MaxUint8 {
		return nil, fmt.Errorf("core: gossip rounds %d need a halving budget of %d, networked runs carry at most %d",
			d.GossipRounds, d.preScaleBits(), math.MaxUint8)
	}
	pop, err := openPopulation(data, params)
	if err != nil {
		return nil, err
	}
	r, err := pop.bind(pop.p)
	if err != nil {
		pop.close()
		return nil, err
	}
	nd := &Node{pop: pop, pt: r.newParticipant(p2p.NodeID(id))}
	nd.fp = fingerprint(r.params, r.population, r.dim, r.initial)
	if nd.vecHead, nd.vecWidth, err = vectorShape(r.suite); err != nil {
		pop.close()
		return nil, err
	}
	r.provision(1)
	return nd, nil
}

// ID returns the node's participant id.
func (nd *Node) ID() int { return int(nd.pt.id) }

// Population returns the run's population size.
func (nd *Node) Population() int { return nd.pt.run.population }

// Step runs one protocol activation against the given environment. When
// it returns, every gossip payload DecodePayload produced since the last
// Step is spent: its receive slab is free for the next one.
func (nd *Node) Step(env Env) {
	nd.pt.step(env)
	nd.recycleSlabs()
}

// recycleSlabs frees every receive slab: the payloads decoded into them
// are spent.
func (nd *Node) recycleSlabs() { nd.freeSlabs = append(nd.freeSlabs[:0], nd.slabs...) }

// Done reports whether the participant has terminated (converged or
// exhausted its iteration schedule). A done participant still answers
// decryption requests when stepped, so the transport keeps stepping it
// until every peer is done too.
func (nd *Node) Done() bool { return nd.pt.phase == phaseDone }

// History returns the participant's per-iteration disclosures — the
// trajectory the conformance harness compares bit-for-bit against the
// sequential engine's. The records are the participant's own (the
// latest one's centroids are those it is clustering with): read them,
// never modify them.
func (nd *Node) History() []IterationResult { return nd.pt.history }

// MaxCycles returns the engine's cycle bound for this configuration:
// the networked run uses the same bound as the simulation, so a wedged
// mesh terminates instead of spinning.
func (nd *Node) MaxCycles() int { return nd.pop.p.maxCycles() }

// SamplingSeed returns the seed the peer sampler must use: the
// simulation engine seeds its network at Params.Seed+1, so the
// transport's p2p.NewSampler(SamplingSeed(), id, n) reproduces the
// engine's per-node draw streams.
func (nd *Node) SamplingSeed() int64 { return nd.pop.p.Seed + 1 }

// Fingerprint digests the run configuration every process must agree
// on — defaulted parameters, population and dimensionality — so the
// transport handshake can reject a peer built from a different
// configuration instead of silently diverging.
func (nd *Node) Fingerprint() uint64 { return nd.fp }

// fingerprint is the digest behind Node.Fingerprint and
// ConfigFingerprint, over a defaulted Params. Key material is
// deliberately absent: the ceremony runs after the handshake, derived
// from the digested (seed, backend, modulus) configuration.
func fingerprint(p Params, population, dim int, initial [][]float64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "chiaroscuro|n=%d|dim=%d|k=%d|eps=%b|iters=%d|conv=%b|rounds=%d|thresh=%d|window=%d|backend=%d|modbits=%d|degree=%d|frac=%d|strategy=%T|smoothing=%+v|inertia=%t|istop=%b|seed=%d|max=%b|dkg=%t",
		population, dim, p.K, p.Epsilon, p.Iterations,
		p.ConvergeThreshold, p.GossipRounds, p.DecryptThreshold, p.DecryptWindow,
		p.Backend, p.ModulusBits, p.Degree, p.FracBits, p.Strategy, p.Smoothing,
		p.TrackInertia, p.InertiaStopThreshold, p.Seed, p.MaxValue, p.DKG)
	for _, row := range initial {
		for _, v := range row {
			fmt.Fprintf(h, "|%b", v)
		}
	}
	return h.Sum64()
}

// ConfigFingerprint computes Node.Fingerprint's digest from the raw
// (data, params) configuration without constructing a suite or a
// participant. The transport uses it to handshake the mesh BEFORE the
// key ceremony — so mismatched processes are rejected while the run is
// still keyless — and the digest is guaranteed equal to the one the
// Node built from the same configuration reports afterwards.
func ConfigFingerprint(data [][]float64, params Params) (uint64, error) {
	p, err := checkPopulation(data, params)
	if err != nil {
		return 0, err
	}
	dim := len(data[0])
	return fingerprint(p, len(data), dim, initialCentroids(p, dim)), nil
}

// Close releases suite-held resources.
func (nd *Node) Close() { nd.pop.close() }

// RunSequentialHistories runs the reference engine — Run, sequential
// at the default Params.Workers; any worker count discloses the same
// histories — and returns, alongside the trace, every participant's
// private per-iteration history. The conformance harness needs the
// per-participant view (assignments, displacement readings and
// completion cycles differ node by node) — the Trace only carries the
// population-level disclosure.
func RunSequentialHistories(data [][]float64, params Params) (*Trace, [][]IterationResult, error) {
	pop, err := openPopulation(data, params)
	if err != nil {
		return nil, nil, err
	}
	defer pop.close()
	r, err := pop.bind(pop.p)
	if err != nil {
		return nil, nil, err
	}
	d, err := newCycleDriver(r, 0)
	if err != nil {
		return nil, nil, err
	}
	trace, err := d.run()
	if err != nil {
		return nil, nil, err
	}
	histories := make([][]IterationResult, len(d.participants))
	for i, pt := range d.participants {
		histories[i] = pt.history
	}
	return trace, histories, nil
}
