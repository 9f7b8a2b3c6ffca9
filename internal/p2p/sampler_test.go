package p2p

import (
	"testing"
)

// samplerProbe is a protocol that records the peer draws the engine
// hands it — the reference stream the Sampler must reproduce.
type samplerProbe struct {
	draws []NodeID
}

// drawsPerCycle is how many peers a probe draws per activation.
const drawsPerCycle = 4

func (p *samplerProbe) NextCycle(ctx *Context) {
	for range drawsPerCycle {
		if peer, ok := ctx.RandomPeer(); ok {
			p.draws = append(p.draws, peer)
		}
	}
}

// TestSamplerMatchesEngineStream pins the daemon-side determinism
// contract: for a fault-free, churn-free population, NewSampler(seed,
// id, n) draws exactly the peers the engine's node id draws, call for
// call. The conformance harness (internal/transport) relies on this to
// reproduce simulated trajectories over real connections.
func TestSamplerMatchesEngineStream(t *testing.T) {
	const (
		n      = 17
		seed   = int64(991)
		cycles = 25
	)
	probes := make([]*samplerProbe, n)
	nw, err := New(n, func(id NodeID) Protocol {
		probes[id] = &samplerProbe{}
		return probes[id]
	}, Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(cycles)

	for id := 0; id < n; id++ {
		s := NewSampler(seed, NodeID(id), n)
		probe := probes[id]
		if len(probe.draws) != cycles*drawsPerCycle {
			t.Fatalf("node %d: engine drew %d peers, want %d", id, len(probe.draws), cycles*drawsPerCycle)
		}
		for i, want := range probe.draws {
			if got, _ := s.RandomPeer(); got != want {
				t.Fatalf("node %d draw %d: sampler %d, engine %d", id, i, got, want)
			}
		}
	}
}
