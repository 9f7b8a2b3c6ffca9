package core

import (
	"bytes"
	"math"
	"testing"
)

// codecNodes builds one networked Node per suite over the snapshot
// configuration — the accounted backend, and Damgård–Jurik at 128 bits
// keyed by an in-process ceremony — each with a contribution assigned, so
// every payload kind can be minted from real protocol state.
func codecNodes(t testing.TB) map[string]*Node {
	t.Helper()
	data, params := snapshotTestConfig()
	dj := params
	dj.Backend, dj.ModulusBits, dj.DecryptThreshold = BackendDamgardJurik, 128, 2
	dj = dj.Defaulted(len(data))
	mat, err := RunDJKeyCeremony(dj.ModulusBits, dj.Degree, len(data), dj.DecryptThreshold, dj.Seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	dj.DJMaterial = mat
	out := map[string]*Node{}
	for name, p := range map[string]Params{"plain": params, "dj": dj} {
		nd, err := NewNode(data, p, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Cleanup(nd.Close)
		nd.pt.stepAssign(&scriptedEnv{id: 0, n: len(data)}, nd.sc)
		out[name] = nd
	}
	return out
}

// codecPayloadValues mints one payload of each kind from the node's
// state.
func codecPayloadValues(t testing.TB, nd *Node) map[string]any {
	t.Helper()
	pt := nd.pt
	r := pt.run
	msg := pt.diptych.Means.Emit()
	ciphers := openingOf(pt.diptych.Means.V)
	parts := make([]Partial, len(ciphers))
	for i, c := range ciphers {
		p, err := r.suite.PartialDecrypt(1, c)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = p
	}
	return map[string]any{
		"gossip":   &gossipPayload{Iter: 1, Centroids: pt.diptych.Centroids, Msg: msg},
		"request":  &decryptRequest{Iter: 0, Ciphers: ciphers},
		"response": &decryptResponse{Iter: 1, Partials: parts},
	}
}

// codecPayloads encodes one payload of each kind from the node's state.
func codecPayloads(t testing.TB, nd *Node) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for kind, payload := range codecPayloadValues(t, nd) {
		raw, err := nd.EncodePayload(payload)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		out[kind] = raw
	}
	return out
}

// TestGossipPayloadCarriesTheExponent pins the wire form of the
// exponent: one byte after the weight, in a fixed 9-byte run that takes
// the place of the 4+8-byte length-prefixed weight field — 3 bytes less
// per gossip message, not one more — and bounded by the pre-scale budget
// on decode.
func TestGossipPayloadCarriesTheExponent(t *testing.T) {
	for name, nd := range codecNodes(t) {
		r := nd.pt.run
		raw := codecPayloads(t, nd)["gossip"]
		cv, err := r.suite.AppendCipherVector(nil, nd.pt.diptych.Means.V)
		if err != nil {
			t.Fatal(err)
		}
		// kind, iteration field, centroid field, weight+exponent run,
		// cipher-vector field.
		at := 1 + (4 + 4) + (4 + 8*r.params.K*r.dim)
		if want := at + 9 + (4 + len(cv)); len(raw) != want {
			t.Fatalf("%s: gossip payload of %d bytes, want %d", name, len(raw), want)
		}
		pl, err := nd.DecodePayload(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := pl.(*gossipPayload).Msg; got.H != 1 || got.W != 0.5 {
			t.Fatalf("%s: decoded (h=%d, w=%v), want (1, 0.5)", name, got.H, got.W)
		}
		at += 8
		if raw[at] != 1 {
			t.Fatalf("%s: byte %d is %d, want the exponent 1", name, at, raw[at])
		}
		edge := bytes.Clone(raw)
		edge[at] = byte(r.preScale)
		if pl, err := nd.DecodePayload(edge); err != nil || pl.(*gossipPayload).Msg.H != r.preScale {
			t.Fatalf("%s: exponent at the budget: %v", name, err)
		}
		edge[at]++
		if _, err := nd.DecodePayload(edge); err == nil {
			t.Fatalf("%s: exponent %d accepted over a budget of %d", name, edge[at], r.preScale)
		}
	}
}

// TestNewNodeRejectsABudgetTheWireCannotCarry pins the configuration-time
// refusal that keeps the exponent inside its wire byte: the halving
// budget is GossipRounds+2, so 253 rounds are the most a networked run
// takes, and 254 fail when the Node is built — not at the 256th emission.
func TestNewNodeRejectsABudgetTheWireCannotCarry(t *testing.T) {
	data, params := snapshotTestConfig()
	params.Backend, params.ModulusBits = BackendDamgardJurik, 1024
	params.DJMaterial = &DJKeyMaterial{} // never read: the refusal comes first
	params.GossipRounds = 254
	_, err := NewNode(data, params, 0)
	const want = "core: gossip rounds 254 need a halving budget of 256, networked runs carry at most 255"
	if err == nil || err.Error() != want {
		t.Fatalf("NewNode at 254 gossip rounds: %v, want %q", err, want)
	}
	params.GossipRounds = 253
	if _, err := NewNode(data, params, 0); err == nil || err.Error() == want {
		t.Fatalf("NewNode at 253 gossip rounds: %v, want the key-material refusal", err)
	}
}

// TestNewNodeRejectsNaNSeries pins the daemon path's range check: a NaN
// sample compares false against both bounds, and used to pass it and
// panic the first assignment step instead of failing NewNode.
func TestNewNodeRejectsNaNSeries(t *testing.T) {
	data, params := snapshotTestConfig()
	data[2] = append([]float64(nil), data[2]...)
	data[2][1] = math.NaN()
	_, err := NewNode(data, params, 0)
	const want = "core: participant 2 value NaN at 1 outside [0, 1] — normalize first"
	if err == nil || err.Error() != want {
		t.Fatalf("NewNode over a NaN sample: %v, want %q", err, want)
	}
}

// FuzzDecodePayload hardens the decoder transport/node.go feeds peer
// bytes: arbitrary input must produce an error or a payload — never a
// panic — and an accepted payload is canonical (it re-encodes to the
// bytes it came from, so no two encodings mean the same thing) and within
// the bounds the participant relies on: a vector of the encrypted side's
// length, a
// finite population-bounded weight, a halving exponent inside the
// pre-scale budget.
func FuzzDecodePayload(f *testing.F) {
	nodes := codecNodes(f)
	for name, nd := range nodes {
		for _, raw := range codecPayloads(f, nd) {
			f.Add(name == "dj", raw)
			f.Add(name != "dj", raw) // the other suite's bytes
			f.Add(name == "dj", raw[:len(raw)/2])
		}
	}
	f.Add(false, []byte{})
	f.Fuzz(func(t *testing.T, dj bool, raw []byte) {
		nd := nodes["plain"]
		if dj {
			nd = nodes["dj"]
		}
		r := nd.pt.run
		pl, err := nd.DecodePayload(raw)
		if err != nil {
			return
		}
		again, err := nd.EncodePayload(pl)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		if !bytes.Equal(again, raw) {
			t.Fatalf("accepted payload is not canonical: %d bytes in, %d bytes back", len(raw), len(again))
		}
		if g, ok := pl.(*gossipPayload); ok {
			m := g.Msg
			if m.H > r.preScale {
				t.Fatalf("accepted exponent %d over the budget %d", m.H, r.preScale)
			}
			if math.IsNaN(m.W) || m.W < 0 || m.W > float64(r.population) {
				t.Fatalf("accepted weight %v", m.W)
			}
			if len(m.V) != r.sideCiphers || g.Iter >= r.params.Iterations {
				t.Fatalf("accepted a %d-cipher vector at iteration %d", len(m.V), g.Iter)
			}
		}
	})
}
