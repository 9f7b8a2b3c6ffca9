package costmodel

import (
	"runtime"
	"testing"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/datasets"
	"chiaroscuro/internal/timeseries"
)

// TestProjectionMatchesMeasuredScaleRun is experiment E5b's cross-check:
// the cost projection, fed the scale workload's shape (the one bench/'s
// sim-wide runs: accounted backend, sharded engine, CER-like series of 4
// samples, K=2, 2 iterations, 12 gossip rounds, threshold 8) at the
// packing factor core.PackedSlots derives, must land within a tolerance
// band of a live simulator run of that shape — messages, decrypt
// requests, the gossip round's ciphertext operations, partial
// decryptions and bytes exactly — at a 1024-bit key,
// which packs many coordinates per ciphertext, and at a 96-bit one,
// where one coordinate fills a plaintext. Per-participant counts are
// population-independent, so a tier-1-sized N checks what N=100k would.
func TestProjectionMatchesMeasuredScaleRun(t *testing.T) {
	const n, dim = 2000, 4
	params := core.Params{
		K: 2, Epsilon: 50, Iterations: 2, Seed: 1,
		GossipRounds: 12, DecryptThreshold: 8,
	}
	d, err := datasets.CER(datasets.CEROptions{N: n, Dim: dim, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	set := make([]timeseries.Series, n)
	for i, s := range d.Series {
		set[i] = s
	}
	if _, err := timeseries.NormalizeMinMax(set); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name        string
		modulusBits int
	}{{"unpacked", 96}, {"packed", 1024}} {
		t.Run(tc.name, func(t *testing.T) {
			// The accounted backend simulates Damgård–Jurik at s=1:
			// ciphertexts live mod n², twice the key's bits on the wire,
			// and the plaintext ring is as wide as the key's.
			prof := &CryptoProfile{KeyBits: tc.modulusBits, CiphertextBytes: 2 * tc.modulusBits / 8}
			p := params
			p.ModulusBits = tc.modulusBits
			// The packing factor, from the identical rule the run uses.
			slots, err := core.PackedSlots(tc.modulusBits-1, n, dim, p)
			if err != nil {
				t.Fatal(err)
			}
			if (slots > 1) != (tc.name == "packed") {
				t.Fatalf("a %d-bit key packs %d coordinates per ciphertext", tc.modulusBits, slots)
			}
			w := Workload{
				Participants:     n,
				K:                params.K,
				Dim:              dim,
				Iterations:       params.Iterations,
				GossipRounds:     params.GossipRounds,
				DecryptThreshold: params.DecryptThreshold,
				Slots:            slots,
			}
			rep, err := Project(prof, w)
			if err != nil {
				t.Fatal(err)
			}
			p.Workers = runtime.GOMAXPROCS(0)
			tr, err := core.Run(d.Series, p)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Completed != n || tr.DecryptFailures != 0 {
				t.Fatalf("live run: %d/%d completed, %d decrypt failures", tr.Completed, n, tr.DecryptFailures)
			}
			// Structural counts are exact: any deviation means the
			// projection and the simulator disagree about the protocol.
			if got, want := rep.MessagesSent*n, tr.NetStats.MessagesSent; got != want {
				t.Errorf("messages: projected %d, measured %d", got, want)
			}
			if got, want := rep.DecryptRequests*n, tr.DecryptRequests; got != want {
				t.Errorf("decrypt requests: projected %d, measured %d", got, want)
			}
			// So is what a gossip round costs in ciphertext operations:
			// one sent-copy rerandomization per ciphertext per round, no
			// halving inside a ciphertext, and — the participants gossip
			// in step — no squaring to align exponents.
			if got, want := int64(rep.RerandomizeOps)*n, tr.Ops.Refreshes; got != want {
				t.Errorf("rerandomizations: projected %d, measured %d refreshes", got, want)
			}
			if tr.Ops.Doublings != 0 {
				t.Errorf("live run spent %d squarings aligning exponents, the projection prices none", tr.Ops.Doublings)
			}
			if got, want := int64(rep.PartialDecryptOps)*n, tr.Ops.PartialDecrypts; got != want {
				t.Errorf("partial decryptions: projected %d, measured %d", got, want)
			}
			if eager := tr.Ops.Halvings - tr.Ops.Refreshes; eager != 0 {
				t.Errorf("live run halved %d ciphertexts eagerly", eager)
			}
			// So are the byte totals, envelopes included.
			if got, want := rep.BytesSent*n, tr.NetStats.BytesSent; got != want {
				t.Errorf("bytes sent: projected %d, measured %d", got, want)
			}
			if got, want := rep.DecryptBytes*n, tr.DecryptBytes; got != want {
				t.Errorf("decrypt bytes: projected %d, measured %d", got, want)
			}
		})
	}
}
