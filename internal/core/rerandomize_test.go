package core

import (
	"fmt"
	"testing"
)

// TestDJHalveRerandomizes pins the traffic-analysis defence on the path
// a run takes. A push-sum halving no longer touches the ciphertexts — the
// exponent beside them moves — so a participant that absorbed nothing
// between two rounds holds the very same ciphertexts at both; what it
// sends must nevertheless be unlinkable: two consecutive emissions of the
// unchanged state are distinct ciphertexts, both distinct from the kept
// one, and all three decrypt to the same plaintext.
func TestDJHalveRerandomizes(t *testing.T) {
	_, pt, env := budgetParticipant(t, Params{
		K: 2, Epsilon: 100, Iterations: 1, Seed: 3, GossipRounds: 6, DecryptThreshold: 3,
		Backend: BackendDamgardJurik, ModulusBits: 128,
	}, 0)
	s := pt.run.suite
	pt.stepGossip(env)
	env.cycle++ // one activation per cycle: the next emission's parity buffer
	pt.stepGossip(env)
	if len(env.sent) != 2 {
		t.Fatalf("%d emissions, want 2", len(env.sent))
	}
	first, second := env.sent[0].payload.(*gossipPayload).Msg, env.sent[1].payload.(*gossipPayload).Msg
	if first.H != 1 || second.H != 2 || pt.diptych.Means.H != 2 {
		t.Fatalf("exponents %d, %d, kept %d; want 1, 2, 2", first.H, second.H, pt.diptych.Means.H)
	}
	for i, kept := range pt.diptych.Means.V {
		k, a, b := kept, first.V[i], second.V[i]
		if a.Cmp(b) == 0 {
			t.Fatalf("cipher %d: two emissions of an unchanged state are identical — hops are traceable", i)
		}
		if a.Cmp(k) == 0 || b.Cmp(k) == 0 {
			t.Fatalf("cipher %d: an emission is the kept ciphertext itself", i)
		}
		want := decryptVia(t, s, kept, []int{1, 3, 5})
		for _, c := range []Cipher{a, b} {
			if got := decryptVia(t, s, c, []int{2, 3, 4}); got.Cmp(want) != 0 {
				t.Fatalf("cipher %d: refreshed copy decrypts to %v, kept to %v", i, got, want)
			}
		}
	}
}

// TestRandomizersMatchSchedule: on a fault-free Damgård–Jurik run each
// host's randomizer pool mints exactly the randomizers the run draws —
// one per encryption and one per refresh — and that is exactly what the
// host provisioned for the participants it hosts: all n on the
// sequential and sharded schedulers, one on a networked Node, and each
// window's n on the one pool a session keeps across its windows.
// Nothing is minted only to be thrown away, and nothing is drawn past
// the provision.
func TestRandomizersMatchSchedule(t *testing.T) {
	check := func(label string, s CipherSuite, provisioned int64) {
		t.Helper()
		minted, misses := s.(*djSuite).pool.Stats()
		ops := s.Counts()
		if minted != ops.Encrypts+ops.Refreshes || minted != provisioned || misses != 0 {
			t.Fatalf("%s: minted %d randomizers (%d past the provision) for %d encryptions + %d refreshes; provisioned %d",
				label, minted, misses, ops.Encrypts, ops.Refreshes, provisioned)
		}
	}
	schedule := func(r *runShared, hosted int) int64 {
		return int64(hosted * r.params.Iterations * (r.params.GossipRounds + 1) * r.sideCiphers)
	}
	data := blobs(5, 10, 2)
	p := Params{
		K: 2, Epsilon: 100, Iterations: 2, Seed: 5, GossipRounds: 8, DecryptThreshold: 3,
		Backend: BackendDamgardJurik, ModulusBits: 128,
	}
	for _, workers := range []int{1, 4} {
		p.Workers = workers
		r := openTestRun(t, data, p)
		d, err := newCycleDriver(r)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := d.run()
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Iterations) != p.Iterations {
			t.Fatalf("workers=%d: %d iterations, want the whole schedule of %d", workers, len(tr.Iterations), p.Iterations)
		}
		check(fmt.Sprintf("workers=%d", workers), r.suite, schedule(r, len(data)))
	}

	// A session keeps one suite across its windows, and each window
	// provisions its own draws on that suite's pool.
	for _, workers := range []int{1, 3} {
		base := p
		base.Epsilon, base.Workers = 0, workers
		s, err := NewRunSession(data, SessionParams{Base: base, LifetimeEpsilon: 2 * p.Epsilon, Windows: 2})
		if err != nil {
			t.Fatal(err)
		}
		var drawn int64
		for w := 0; w < 2; w++ {
			res, err := s.Advance(nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Trace.Iterations) != p.Iterations {
				t.Fatalf("session workers=%d window %d: %d iterations, want the whole schedule of %d",
					workers, w, len(res.Trace.Iterations), p.Iterations)
			}
			drawn += res.Trace.Ops.Encrypts + res.Trace.Ops.Refreshes
		}
		check(fmt.Sprintf("session workers=%d", workers), s.pop.suite, drawn)
		s.Close()
	}

	data, p = djSnapshotTestConfig(t)
	m := newMemMesh(t, data, p)
	m.run(t, 0)
	m.close()
	for id, nd := range m.nodes {
		if len(nd.History()) != p.Iterations {
			t.Fatalf("node %d disclosed %d iterations, want %d", id, len(nd.History()), p.Iterations)
		}
		check(fmt.Sprintf("node %d", id), nd.pop.suite, schedule(nd.pt.run, 1))
	}
}
