package experiments

import (
	"fmt"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/costmodel"
)

// The E5 demo workload (Sec. III.B cost displays), shared by E5a's
// packing-factor column and E5b's projection so the two tables cannot
// drift apart.
const (
	e5Participants = 1000000
	e5K            = 5
	e5Dim          = 24
	e5Iterations   = 8
	e5GossipRounds = 20
	e5Threshold    = 10
)

// e5DemoParams is the demo workload as core Params, used to derive the
// slot-packing factor per key size from the rule a run applies.
func e5DemoParams() core.Params {
	return core.Params{K: e5K, Epsilon: 1, Iterations: e5Iterations, GossipRounds: e5GossipRounds}
}

// e5Slots is the packing factor at the given key size (s=1: the
// plaintext space is the key modulus) for the demo workload.
func e5Slots(keyBits int) (int, error) {
	return core.PackedSlots(keyBits-1, e5Participants, e5Dim, e5DemoParams())
}

// E5CryptoCosts reproduces the demonstration's cost methodology
// (Sec. III.B): measure the real per-operation Damgård–Jurik timings on
// this machine ("actual average measures performed beforehand") and
// project them to full deployments.
func E5CryptoCosts(sc Scale) (*Table, error) {
	reps := 4 * sc.Repeats
	t := &Table{
		ID:    "E5a",
		Title: "Measured Damgård–Jurik per-operation times (this machine, s=1)",
		Header: []string{"key bits", "encrypt", "encrypt (fast)", "hom. add", "rerandomize (pooled)", "squaring", "halve in place (avoided)",
			"partial dec", "combine", "combine (batched)", "ciphertext", "slots/ct"},
	}
	keyBits := []int{512, 1024, 2048}
	profiles := map[int]*costmodel.CryptoProfile{}
	for _, bits := range keyBits {
		p, err := costmodel.MeasureProfile(bits, 1, 8, 5, reps)
		if err != nil {
			return nil, err
		}
		profiles[bits] = p
		slots, err := e5Slots(bits)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			d(bits),
			p.Encrypt.Round(time.Microsecond).String(),
			p.FastEncrypt.Round(time.Microsecond).String(),
			p.Add.Round(time.Microsecond).String(),
			p.FastRerandomize.Round(time.Microsecond).String(),
			p.Square.Round(time.Microsecond).String(),
			p.ScalarMul.Round(time.Microsecond).String(),
			p.PartialDecrypt.Round(time.Microsecond).String(),
			p.Combine.Round(time.Microsecond).String(),
			p.FastCombine.Round(time.Microsecond).String(),
			fmt.Sprintf("%d B", p.CiphertextBytes),
			d(slots),
		})
	}
	t.Notes = append(t.Notes,
		"these are the \"encryption/decryption/addition times\" the demo GUI scales up from (Sec. III.B point 2); threshold configuration 5-of-8.",
		"\"fast\" columns are the precomputed paths of docs/CRYPTO.md: fixed-base table encryption, batched multi-exponentiation combine — decrypt- resp. bit-identical to the naive reference. \"partial dec\" is a share holder's price: the CRT split that makes a decryption ~3× cheaper needs the factorization, which only the dealer (or a single key holder) has.",
		"a gossip round costs one pooled rerandomization (the copy that is sent) and one addition (the merge) per ciphertext: push-sum's halvings travel as an exponent beside the ciphertexts. \"squaring\" is what aligning two shares one halving apart costs per ciphertext — nothing when participants gossip in step; \"halve in place (avoided)\" is the full-width exponentiation by 2⁻¹ mod n^s each of those halvings cost per ciphertext while it was performed inside the ciphertext.",
		"\"slots/ct\" is how many coordinates of the encrypted side a run packs per ciphertext at that key size for the E5b workload (docs/CRYPTO.md, \"Slot packing\") — every per-ciphertext cost, openings included, divides by it.")
	return t, nil
}

// E5CostProjection projects the measured profiles onto the full protocol
// (the demo's per-participant cost displays).
func E5CostProjection(sc Scale) (*Table, error) {
	reps := 4 * sc.Repeats
	t := &Table{
		ID:    "E5b",
		Title: "Projected per-participant cost of a full run (k=5, 24 samples, 8 iterations, 20 gossip rounds, threshold 10)",
		Header: []string{"key bits", "crypto CPU / participant", "crypto CPU (fast path)",
			"of which gossip (fast path)", "gossip if halved in place",
			"network / participant", "messages / participant", "opened / iteration",
			"collaborative-decryption latency", "latency (fast path)"},
	}
	w := costmodel.Workload{
		Participants:     e5Participants,
		K:                e5K,
		Dim:              e5Dim,
		Iterations:       e5Iterations,
		GossipRounds:     e5GossipRounds,
		DecryptThreshold: e5Threshold,
	}
	for _, bits := range []int{512, 1024, 2048} {
		p, err := costmodel.MeasureProfile(bits, 1, 8, 5, reps)
		if err != nil {
			return nil, err
		}
		pw := w
		if pw.Slots, err = e5Slots(bits); err != nil {
			return nil, err
		}
		r, err := costmodel.Project(p, pw)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			d(bits),
			r.CPUTime.Round(time.Millisecond).String(),
			r.CPUTimeFast.Round(time.Millisecond).String(),
			(time.Duration(r.RerandomizeOps) * (p.FastRerandomize + p.Add)).Round(time.Millisecond).String(),
			(time.Duration(r.RerandomizeOps) * (p.ScalarMul + p.FastRerandomize + p.Add)).Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f MB", float64(r.BytesSent)/1e6),
			d(r.MessagesSent),
			d(pw.SideCiphers()),
			r.DecryptLatency.Round(time.Millisecond).String(),
			r.DecryptLatencyFast.Round(time.Millisecond).String(),
		})
	}
	t.Notes = append(t.Notes,
		"per-participant costs are independent of the population size (they depend on k, d, rounds and the decryption threshold) — the scalability property behind the paper's claim 3 (\"costs remain affordable given the resources of today's personal devices\").",
		"\"of which gossip\" is rounds × vector × (pooled rerandomization + addition): the halvings are increments of the exponent carried beside the ciphertexts and the projection is for participants gossiping in step (no exponent to align; a lagging participant pays E5a's squaring per ciphertext per halving of gap on top). \"gossip if halved in place\" adds the full-width exponentiation each halving cost per ciphertext before that.",
		"every column projects the packed encrypted side at E5a's slots/ct for that key size: each per-ciphertext operation and byte is divided by the packing factor.",
		"\"opened / iteration\" is the ciphertexts a participant opens per iteration — each costs threshold partial decryptions and one combine: the step-2c sums of its slot groups.")
	return t, nil
}
