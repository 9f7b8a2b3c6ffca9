package core

import (
	"math"
	"testing"
)

// assertTracesBitIdentical compares everything observable about two
// traces: per-iteration disclosed centroids and counts, final centroids,
// inertia, network statistics and operation counts. Floats are compared
// with ==, not a tolerance — the determinism contract is bit-identity.
func assertTracesBitIdentical(t *testing.T, a, b *Trace, label string) {
	t.Helper()
	if len(a.Iterations) != len(b.Iterations) {
		t.Fatalf("%s: %d vs %d iterations", label, len(a.Iterations), len(b.Iterations))
	}
	for i := range a.Iterations {
		ia, ib := a.Iterations[i], b.Iterations[i]
		if ia.Iteration != ib.Iteration || ia.Epsilon != ib.Epsilon {
			t.Fatalf("%s: iteration %d header mismatch", label, i)
		}
		for j := range ia.PerturbedCentroids {
			for tt := range ia.PerturbedCentroids[j] {
				if ia.PerturbedCentroids[j][tt] != ib.PerturbedCentroids[j][tt] {
					t.Fatalf("%s: iteration %d centroid %d[%d]: %v vs %v",
						label, i, j, tt, ia.PerturbedCentroids[j][tt], ib.PerturbedCentroids[j][tt])
				}
			}
		}
		for j := range ia.PerturbedCounts {
			if ia.PerturbedCounts[j] != ib.PerturbedCounts[j] {
				t.Fatalf("%s: iteration %d count %d: %v vs %v",
					label, i, j, ia.PerturbedCounts[j], ib.PerturbedCounts[j])
			}
		}
		bothNaN := math.IsNaN(ia.PerturbedInertia) && math.IsNaN(ib.PerturbedInertia)
		if !bothNaN && ia.PerturbedInertia != ib.PerturbedInertia {
			t.Fatalf("%s: iteration %d inertia: %v vs %v", label, i, ia.PerturbedInertia, ib.PerturbedInertia)
		}
	}
	for j := range a.FinalCentroids {
		for tt := range a.FinalCentroids[j] {
			if a.FinalCentroids[j][tt] != b.FinalCentroids[j][tt] {
				t.Fatalf("%s: final centroid %d[%d]: %v vs %v",
					label, j, tt, a.FinalCentroids[j][tt], b.FinalCentroids[j][tt])
			}
		}
	}
	if a.Inertia != b.Inertia {
		t.Fatalf("%s: inertia %v vs %v", label, a.Inertia, b.Inertia)
	}
	if a.ConvergedAtIteration != b.ConvergedAtIteration {
		t.Fatalf("%s: convergence %d vs %d", label, a.ConvergedAtIteration, b.ConvergedAtIteration)
	}
	if a.NetStats != b.NetStats {
		t.Fatalf("%s: net stats %+v vs %+v", label, a.NetStats, b.NetStats)
	}
	if a.CyclesRun != b.CyclesRun {
		t.Fatalf("%s: cycles %d vs %d", label, a.CyclesRun, b.CyclesRun)
	}
	if a.DecryptFailures != b.DecryptFailures || a.StaleDrops != b.StaleDrops {
		t.Fatalf("%s: failures %d/%d vs %d/%d", label,
			a.DecryptFailures, a.StaleDrops, b.DecryptFailures, b.StaleDrops)
	}
}

// TestShardedEngineBitIdenticalToRun is the cross-scheduler determinism
// contract of Run: for the same seed, the sequential scheduler (Workers
// 0) and the sharded one at any Workers must disclose bit-identical
// centroids at every iteration, with identical network and crypto
// accounting.
func TestShardedEngineBitIdenticalToRun(t *testing.T) {
	data := blobs(150, 4, 3)
	base := Params{K: 3, Epsilon: 5, Iterations: 3, Seed: 7}

	seq, err := Run(data, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8, 64} {
		p := base
		p.Workers = workers
		sh, err := Run(data, p)
		if err != nil {
			t.Fatal(err)
		}
		assertTracesBitIdentical(t, seq, sh, "workers="+itoa(workers))
		if seq.Ops != sh.Ops {
			t.Fatalf("workers=%d: op counts %+v vs %+v", workers, seq.Ops, sh.Ops)
		}
	}
}

// TestShardedEngineBitIdenticalUnderChurn repeats the contract with
// crashes, rejoins and resets: lifecycle directives are drawn
// sequentially at cycle start and must not depend on the worker count.
func TestShardedEngineBitIdenticalUnderChurn(t *testing.T) {
	data := blobs(120, 3, 2)
	base := Params{
		K: 2, Epsilon: 100, Iterations: 3, Seed: 19,
		Faults: mustPlan(t, "churn=0.03/0.4;outage@6+10=3,7,11,60:reset"),
	}
	seq, err := Run(data, base)
	if err != nil {
		t.Fatal(err)
	}
	if seq.NetStats.Crashes == 0 {
		t.Fatal("churn ineffective on this seed; pick another")
	}
	p := base
	p.Workers = 6
	sh, err := Run(data, p)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesBitIdentical(t, seq, sh, "churn workers=6")
}

// TestShardedEngineBitIdenticalRealCrypto runs the contract on the
// Damgård–Jurik backend: ciphertexts differ run to run (fresh encryption
// randomness), but every decoded plaintext — and hence every disclosed
// centroid — must still match Run bit for bit.
func TestShardedEngineBitIdenticalRealCrypto(t *testing.T) {
	data := blobs(16, 3, 2)
	base := Params{
		K: 2, Epsilon: 100, Iterations: 2, Seed: 5,
		GossipRounds: 8, DecryptThreshold: 4,
		Backend: BackendDamgardJurik, ModulusBits: 128,
	}
	seq, err := Run(data, base)
	if err != nil {
		t.Fatal(err)
	}
	p := base
	p.Workers = 4
	sh, err := Run(data, p)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesBitIdentical(t, seq, sh, "damgard-jurik workers=4")
}

// TestShardedDefaultsAndValidation pins the Workers default and error
// paths: a negative count is refused by validation, before any suite is
// built, by a one-shot run and a session alike.
func TestShardedDefaultsAndValidation(t *testing.T) {
	data := blobs(40, 3, 2)
	const want = "core: worker count -3 must be non-negative"
	if _, err := Run(data, Params{K: 2, Epsilon: 10, Workers: -3}); err == nil || err.Error() != want {
		t.Fatalf("Run with Workers -3: error %v, want %q", err, want)
	}
	sp := SessionParams{Base: Params{K: 2, Workers: -3}, LifetimeEpsilon: 10}
	if _, err := NewRunSession(data, sp); err == nil || err.Error() != want {
		t.Fatalf("NewRunSession with Workers -3: error %v, want %q", err, want)
	}
	// Workers=0 runs the sequential scheduler and must succeed.
	if _, err := Run(data, Params{K: 2, Epsilon: 10, Iterations: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
