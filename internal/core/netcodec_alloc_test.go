package core

import (
	"bytes"
	"math/big"
	"testing"

	"chiaroscuro/internal/p2p"
)

// netcodec_alloc_test.go pins what the daemon's message path costs per
// message and the receive-slab contract that makes it cheap: a gossip
// payload's ciphers live in a slab the node recycles when Step returns,
// at most population−1 slabs exist, and nothing else is ever slab-backed.

// gossipDecodeAllocs is the pinned cost of a warmed gossip decode: the
// payload, its message, and the centroid matrix (row headers and one
// backing array). No big integer is allocated.
const gossipDecodeAllocs = 4

// quietCodecNodes is codecNodes with every node's randomizer pool
// closed: a provisioned pool mints in a background goroutine, whose
// allocations testing.AllocsPerRun would count against whichever node
// is measured.
// Nothing measured here draws a randomizer.
func quietCodecNodes(t *testing.T) map[string]*Node {
	nodes := codecNodes(t)
	for _, nd := range nodes {
		nd.Close()
	}
	return nodes
}

// TestAppendPayloadAllocations: every payload kind, on both suites,
// encodes into a warmed buffer without allocating, and AppendPayload
// writes exactly EncodePayload's bytes after the buffer's prefix.
func TestAppendPayloadAllocations(t *testing.T) {
	for name, nd := range quietCodecNodes(t) {
		for kind, payload := range codecPayloadValues(t, nd) {
			want, err := nd.EncodePayload(payload)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, kind, err)
			}
			// Under -race the compiler does not fuse slices.Grow's append of
			// a make, so its one growth counts twice there.
			if got := testing.AllocsPerRun(20, func() { nd.EncodePayload(payload) }); got != 1 && !raceEnabled {
				t.Errorf("%s/%s: EncodePayload allocates %v times, want 1 (the buffer, grown once)", name, kind, got)
			}
			buf, err := nd.AppendPayload([]byte("prefix"), payload)
			if err != nil || !bytes.Equal(buf[:6], []byte("prefix")) || !bytes.Equal(buf[6:], want) {
				t.Fatalf("%s/%s: AppendPayload after a prefix: %v", name, kind, err)
			}
			got := testing.AllocsPerRun(50, func() {
				if buf, err = nd.AppendPayload(buf[:0], payload); err != nil {
					t.Fatal(err)
				}
			})
			if got != 0 {
				t.Errorf("%s/%s: AppendPayload into a warmed buffer allocates %v times, want 0", name, kind, got)
			}
		}
	}
}

// TestDecodeGossipAllocations: once a receive slab exists, decoding a
// gossip payload allocates gossipDecodeAllocs times on both suites,
// whatever the cipher width.
func TestDecodeGossipAllocations(t *testing.T) {
	for name, nd := range quietCodecNodes(t) {
		raw := codecPayloads(t, nd)["gossip"]
		if _, err := nd.DecodePayload(raw); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nd.recycleSlabs()
		got := testing.AllocsPerRun(50, func() {
			if _, err := nd.DecodePayload(raw); err != nil {
				t.Fatal(err)
			}
			nd.recycleSlabs()
		})
		if got != gossipDecodeAllocs {
			t.Errorf("%s: warmed gossip decode allocates %v times, want %d", name, got, gossipDecodeAllocs)
		}
	}
}

// TestReceiveSlabsBounded: 3·N gossip decodes with no Step in between —
// what FuzzDecodePayload and a hostile peer do — mint at most N−1 slabs,
// and no two undelivered payloads share storage. A decode that fails
// gives its slab back, and Step frees them all.
func TestReceiveSlabsBounded(t *testing.T) {
	for name, nd := range codecNodes(t) {
		n := nd.Population()
		raw := codecPayloads(t, nd)["gossip"]
		seen := map[*big.Int]bool{}
		for i := 0; i < 3*n; i++ {
			pl, err := nd.DecodePayload(raw)
			if err != nil {
				t.Fatalf("%s: decode %d: %v", name, i, err)
			}
			for _, c := range pl.(*gossipPayload).Msg.V {
				if seen[c] {
					t.Fatalf("%s: decode %d reuses a cipher an undelivered payload holds", name, i)
				}
				seen[c] = true
			}
		}
		if len(nd.slabs) > n-1 || len(nd.freeSlabs) != 0 {
			t.Fatalf("%s: %d decodes without a Step left %d slabs (%d free), want at most %d, none free",
				name, 3*n, len(nd.slabs), len(nd.freeSlabs), n-1)
		}

		nd.recycleSlabs()
		bad := bytes.Clone(raw)
		for i := len(bad) - nd.vecWidth; i < len(bad); i++ {
			bad[i] = 0xFF // the last cipher out of range on both suites
		}
		if _, err := nd.DecodePayload(bad); err == nil {
			t.Fatalf("%s: an out-of-range cipher decoded", name)
		}
		if len(nd.freeSlabs) != len(nd.slabs) {
			t.Fatalf("%s: a failed decode kept its slab (%d of %d free)", name, len(nd.freeSlabs), len(nd.slabs))
		}

		if _, err := nd.DecodePayload(raw); err != nil {
			t.Fatal(err)
		}
		nd.Step(&scriptedEnv{id: 0, n: n})
		if len(nd.freeSlabs) != len(nd.slabs) {
			t.Fatalf("%s: Step left %d of %d slabs lent", name, len(nd.slabs)-len(nd.freeSlabs), len(nd.slabs))
		}
	}
}

// inboxEnv is a scriptedEnv that delivers an inbox.
type inboxEnv struct {
	scriptedEnv
	inbox []p2p.Message
}

func (e *inboxEnv) Inbox() []p2p.Message { return e.inbox }

// TestDecryptRequestsNeverShareStorage: the responder memoizes partials
// by the address of the request's first cipher, so two different
// requests for the same iteration, decoded and served in successive
// steps, must arrive in distinct storage and each get its own partials.
// Slab-backed requests would alias, and the second would be answered
// with the first one's partials.
func TestDecryptRequestsNeverShareStorage(t *testing.T) {
	for name, nd := range codecNodes(t) {
		r := nd.pt.run
		// Two same-length requests of different ciphertexts: the node's
		// push-sum vector, and fresh encryptions of 1, 2, ….
		other := make([]Cipher, r.sideCiphers)
		for i := range other {
			c, err := r.suite.Encrypt(big.NewInt(int64(i + 1)))
			if err != nil {
				t.Fatal(err)
			}
			other[i] = c
		}
		var prev *big.Int
		for step, ciphers := range [][]Cipher{nd.pt.diptych.Means.V, other} {
			want := make([]Partial, len(ciphers))
			for i, c := range ciphers {
				p, err := r.suite.PartialDecrypt(1, c)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = p
			}
			raw, err := nd.EncodePayload(&decryptRequest{Iter: 0, Ciphers: ciphers})
			if err != nil {
				t.Fatal(err)
			}
			req, err := nd.DecodePayload(raw)
			if err != nil {
				t.Fatal(err)
			}
			if first := req.(*decryptRequest).Ciphers[0]; first == prev {
				t.Fatalf("%s: step %d's request decoded into the previous request's storage", name, step)
			} else {
				prev = first
			}
			env := &inboxEnv{scriptedEnv: scriptedEnv{id: 0, n: nd.Population(), cycle: step},
				inbox: []p2p.Message{{From: 1, Payload: req}}}
			nd.Step(env)
			var got []Partial
			for _, s := range env.sent {
				if resp, ok := s.payload.(*decryptResponse); ok && s.to == 1 {
					got = resp.Partials
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s: step %d answered %d partials, want %d", name, step, len(got), len(want))
			}
			for i := range want {
				if got[i].Index != want[i].Index || got[i].Value.Cmp(want[i].Value) != 0 {
					t.Fatalf("%s: step %d partial %d is not the partial of the requested cipher", name, step, i)
				}
			}
		}
	}
}
