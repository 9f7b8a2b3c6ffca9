package experiments

import (
	"errors"
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
// slot-packing factor per key size from the same headroom rule a packed
// run applies.
func e5DemoParams() core.Params {
	return core.Params{K: e5K, Epsilon: 1, Iterations: e5Iterations, GossipRounds: e5GossipRounds}
}

// e5PackedSlots is the packing factor at the given key size (s=1: the
// plaintext space is the key modulus) for the demo workload. Packing
// being infeasible at a small key is an expected outcome and projects
// as the unpacked protocol (1 slot); any other failure is a real
// configuration error and propagates, so a drifting e5DemoParams cannot
// silently publish unpacked numbers in the packed columns.
func e5PackedSlots(keyBits int) (int, error) {
	slots, err := core.PackedSlots(keyBits-1, e5Participants, e5Dim, e5DemoParams())
	if errors.Is(err, core.ErrPackingInfeasible) {
		return 1, nil
	}
	if err != nil {
		return 0, err
	}
	return slots, nil
}

// e5Opening is how the unpacked demo workload opens its perturbed means
// at the given key size: coordinates per opened ciphertext and the
// squarings between them.
func e5Opening(keyBits int) (slots, width int, err error) {
	return core.OpeningSlots(keyBits-1, e5Participants, e5Dim, e5DemoParams())
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
			"partial dec", "partial dec (fast)", "combine", "combine (batched)", "ciphertext", "packed slots/ct", "opening slots/ct"},
	}
	keyBits := []int{512, 1024, 2048}
	profiles := map[int]*costmodel.CryptoProfile{}
	for _, bits := range keyBits {
		p, err := costmodel.MeasureProfile(bits, 1, 8, 5, reps)
		if err != nil {
			return nil, err
		}
		profiles[bits] = p
		slots, err := e5PackedSlots(bits)
		if err != nil {
			return nil, err
		}
		openSlots, _, err := e5Opening(bits)
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
			p.FastPartialDecrypt.Round(time.Microsecond).String(),
			p.Combine.Round(time.Microsecond).String(),
			p.FastCombine.Round(time.Microsecond).String(),
			fmt.Sprintf("%d B", p.CiphertextBytes),
			d(slots),
			d(openSlots),
		})
	}
	t.Notes = append(t.Notes,
		"these are the \"encryption/decryption/addition times\" the demo GUI scales up from (Sec. III.B point 2); threshold configuration 5-of-8.",
		"\"fast\" columns are the precomputed paths of docs/CRYPTO.md: fixed-base table encryption, CRT partial decryption, batched multi-exponentiation combine — decrypt- resp. bit-identical to the naive reference.",
		"a gossip round costs one pooled rerandomization (the copy that is sent) and one addition (the merge) per ciphertext: push-sum's halvings travel as an exponent beside the ciphertexts. \"squaring\" is what aligning two shares one halving apart costs per ciphertext — nothing when participants gossip in step; \"halve in place (avoided)\" is the full-width exponentiation by 2⁻¹ mod n^s each of those halvings cost per ciphertext while it was performed inside the ciphertext.",
		"\"packed slots/ct\" is how many fused-vector coordinates slot packing fits per ciphertext at that key size for the E5b workload (docs/CRYPTO.md, \"Slot packing\") — every per-ciphertext cost divides by it.",
		"\"opening slots/ct\" is how many perturbed means an unpacked run packs into each ciphertext it opens (docs/CRYPTO.md, \"Packed openings\") — its partial decryptions and combines divide by it.")
	return t, nil
}

// E5CostProjection projects the measured profiles onto the full protocol
// (the demo's per-participant cost displays), unpacked and packed.
func E5CostProjection(sc Scale) (*Table, error) {
	reps := 4 * sc.Repeats
	t := &Table{
		ID:    "E5b",
		Title: "Projected per-participant cost of a full run (k=5, 24 samples, 8 iterations, 20 gossip rounds, threshold 10)",
		Header: []string{"key bits", "crypto CPU / participant", "crypto CPU (fast path)", "crypto CPU (packed+fast)",
			"of which gossip (fast path)", "gossip if halved in place",
			"network / participant", "network (packed)", "messages / participant",
			"opened / iteration", "opened (packed)",
			"collaborative-decryption latency", "latency (packed+fast)"},
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
		uw := w
		if uw.OpenSlots, uw.OpenWidth, err = e5Opening(bits); err != nil {
			return nil, err
		}
		r, err := costmodel.Project(p, uw)
		if err != nil {
			return nil, err
		}
		pw := w
		pw.Slots, err = e5PackedSlots(bits)
		if err != nil {
			return nil, err
		}
		pr, err := costmodel.Project(p, pw)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			d(bits),
			r.CPUTime.Round(time.Millisecond).String(),
			r.CPUTimeFast.Round(time.Millisecond).String(),
			pr.CPUTimeFast.Round(time.Millisecond).String(),
			(time.Duration(r.RerandomizeOps) * (p.FastRerandomize + p.Add)).Round(time.Millisecond).String(),
			(time.Duration(r.RerandomizeOps) * (p.ScalarMul + p.FastRerandomize + p.Add)).Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f MB", float64(r.BytesSent)/1e6),
			fmt.Sprintf("%.1f MB", float64(pr.BytesSent)/1e6),
			d(r.MessagesSent),
			d(uw.OpenedCiphers()),
			d(pw.OpenedCiphers()),
			r.DecryptLatency.Round(time.Millisecond).String(),
			pr.DecryptLatencyFast.Round(time.Millisecond).String(),
		})
	}
	t.Notes = append(t.Notes,
		"per-participant costs are independent of the population size (they depend on k, d, rounds and the decryption threshold) — the scalability property behind the paper's claim 3 (\"costs remain affordable given the resources of today's personal devices\").",
		"\"of which gossip\" is rounds × vector × (pooled rerandomization + addition): the halvings are increments of the exponent carried beside the ciphertexts and the projection is for participants gossiping in step (no exponent to align; a lagging participant pays E5a's squaring per ciphertext per halving of gap on top). \"gossip if halved in place\" adds the full-width exponentiation each halving cost per ciphertext before that.",
		"\"packed\" columns project the slot-packed encrypted side (E5a's slots/ct at each key size): the same protocol with every per-ciphertext operation and byte divided by the packing factor.",
		"\"opened / iteration\" is the ciphertexts a participant opens per iteration — each costs threshold partial decryptions and one combine: the unpacked run packs its perturbed means into them (E5a's opening slots/ct, paid for in squarings), the packed run opens its slot groups.")
	return t, nil
}
