package costmodel

import (
	"math"
	"testing"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/datasets"
	"chiaroscuro/internal/timeseries"
)

// TestProjectionMatchesMeasuredScaleRun is experiment E5b's cross-check:
// the cost projection, fed the scale workload's shape (the one bench/'s
// sim-wide runs: accounted backend, sharded engine, CER-like series of 4
// samples, K=2, 2 iterations, 12 gossip rounds, threshold 8), must land
// within a tolerance band of a live simulator run of that shape, packed
// and unpacked — messages, decrypt requests, the gossip round's
// ciphertext operations and the squarings that pack an unpacked run's
// openings exactly, bytes within 10%
// (see the package doc's drift note for where the residual
// envelope-overhead difference comes from). Per-participant counts are
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

	// The accounted backend simulates 1024-bit Damgård–Jurik at s=1:
	// ciphertexts live mod n², i.e. 2048 bits on the wire.
	const modulusBits = 1024
	prof := &CryptoProfile{KeyBits: modulusBits, CiphertextBytes: 2 * modulusBits / 8}
	// The accounted backend's actual plaintext ring is NewPlainSuite's
	// fixed 320-bit modulus (the key size only drives the wire-size
	// accounting), so the run packs against 319 usable bits.
	const plainBits = 320 - 1

	within := func(t *testing.T, name string, got, want, tol float64) {
		t.Helper()
		if want == 0 {
			t.Fatalf("%s: measured value is zero", name)
		}
		rel := math.Abs(got-want) / want
		t.Logf("%s: projected %.4g vs measured %.4g (drift %.2f%%)", name, got, want, 100*rel)
		if rel > tol {
			t.Errorf("%s: projection %.4g drifted %.1f%% from measured %.4g (band %.0f%%)",
				name, got, 100*rel, want, 100*tol)
		}
	}

	for _, packed := range []bool{false, true} {
		name := "unpacked"
		if packed {
			name = "packed"
		}
		t.Run(name, func(t *testing.T) {
			w := Workload{
				Participants:     n,
				K:                params.K,
				Dim:              dim,
				Iterations:       params.Iterations,
				GossipRounds:     params.GossipRounds,
				DecryptThreshold: params.DecryptThreshold,
			}
			p := params
			p.Packed = packed
			// Derive the packing factor, or how the unpacked run packs
			// its openings, from the identical rule the run itself uses.
			if packed {
				slots, err := core.PackedSlots(plainBits, n, dim, params)
				if err != nil {
					t.Fatal(err)
				}
				w.Slots = slots
			} else {
				slots, width, err := core.OpeningSlots(plainBits, n, dim, params)
				if err != nil {
					t.Fatal(err)
				}
				w.OpenSlots, w.OpenWidth = slots, width
			}
			rep, err := Project(prof, w)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := core.RunSharded(d.Series, p)
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
			// And so is what packing the openings costs.
			if got, want := int64(rep.OpeningSquareOps)*n, tr.Ops.OpeningSquarings; got != want {
				t.Errorf("opening squarings: projected %d, measured %d", got, want)
			}
			if eager := tr.Ops.Halvings - tr.Ops.Refreshes; eager != 0 {
				t.Errorf("live run halved %d ciphertexts eagerly", eager)
			}
			// Byte totals absorb per-message envelope overhead the
			// projection only approximates — held to a 10% band.
			within(t, "bytes sent", float64(rep.BytesSent)*n, float64(tr.NetStats.BytesSent), 0.10)
			within(t, "decrypt bytes", float64(rep.DecryptBytes)*n, float64(tr.DecryptBytes), 0.10)
		})
	}
}
