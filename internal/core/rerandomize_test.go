package core

import "testing"

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
