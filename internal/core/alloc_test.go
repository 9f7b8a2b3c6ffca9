package core

import (
	"testing"

	"chiaroscuro/internal/datasets"
)

// allocTestParams is a configuration whose first iteration holds every
// participant in the gossip phase long enough to warm all amortized
// buffers and then measure pure steady-state cycles.
func allocTestParams(rounds int) Params {
	return Params{
		K: 2, Epsilon: 50, Iterations: 1, Seed: 11,
		GossipRounds: rounds, DecryptThreshold: 3,
	}
}

func allocTestData(t testing.TB, n int) [][]float64 {
	t.Helper()
	return allocTestSeries(t, n, 4)
}

// allocTestSeries is allocTestData at any series length.
func allocTestSeries(t testing.TB, n, dim int) [][]float64 {
	t.Helper()
	d, err := datasets.CER(datasets.CEROptions{N: n, Dim: dim, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range d.Series {
		for i, v := range s {
			s[i] = v / 8 // generator kW values into [0,1]
			if s[i] > 1 {
				s[i] = 1
			}
		}
	}
	return d.Series
}

// TestGossipCycleZeroAlloc is the allocation gate of the gossip cycle:
// a warmed steady-state cycle — all participants' halve-and-emit into
// their parity buffers plus batched in-place absorbs, across the whole
// simulated network — is measured with testing.AllocsPerRun. Every run
// packs its sides, so the ciphers measured are slot groups. On the
// accounted backend it allocates nothing. On Damgård–Jurik the in-place
// arithmetic allocates nothing either, and neither does the randomizer
// every RefreshInPlace draws: the pool mints it — a random exponent read
// into reused bytes, then a fixed-base table exponentiation — into
// storage carved when the run provisioned the pool, and the refresh
// hands that storage back. The ceiling is still counted per refresh:
// 0 objects per cycle in 99 of 100 runs and 1 in the other (n=16,
// 256-bit key, 128 refreshes per cycle), held at 0.05 per refresh. The run is deterministic (fixed seed), so
// the buffer capacities the warm-up grows are the ones the measured
// window needs. Under -race the Damgård–Jurik figure is logged but not
// held to its ceiling: the race detector makes sync.Pool drop Puts on
// purpose, and the in-place products' scratch and the exponent draw are
// pooled, so their temporaries then reach the heap. The accounted
// backend pools nothing on this path and keeps its exact 0.
func TestGossipCycleZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name             string
		n, warm, measure int
		backend          Backend
		bits             int
		allocsPerRefresh float64
	}{
		{"plain", 48, 40, 40, BackendPlainAccounted, 0, 0},
		{"dj256", 16, 8, 8, BackendDamgardJurik, 256, 0.05},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := allocTestData(t, tc.n)
			p := allocTestParams(tc.warm + tc.measure + 8)
			p.Backend, p.ModulusBits = tc.backend, tc.bits
			r := openTestRun(t, data, p)
			if !r.parityEmits {
				t.Fatal("a fault-free cycle-driven run must emit into parity buffers")
			}
			d, err := newCycleDriver(r, len(data))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.warm+1; i++ { // cycle 0 = assignment, then gossip
				d.nw.RunCycle()
			}
			for _, pt := range d.participants {
				if pt.phase != phaseGossip {
					t.Fatalf("participant %d not in gossip phase after warm-up", pt.id)
				}
			}
			before := r.suite.Counts().Refreshes
			allocs := testing.AllocsPerRun(tc.measure, func() {
				d.nw.RunCycle()
			})
			// AllocsPerRun runs the cycle once more than it measures.
			perCycle := float64(r.suite.Counts().Refreshes-before) / float64(tc.measure+1)
			t.Logf("%.2f heap objects per cycle, %.0f refreshes per cycle", allocs, perCycle)
			if ceiling := tc.allocsPerRefresh * perCycle; allocs > ceiling && !(raceEnabled && tc.backend == BackendDamgardJurik) {
				t.Fatalf("steady-state gossip cycle allocates %.2f heap objects (network-wide, n=%d), ceiling %.0f", allocs, tc.n, ceiling)
			}
			for _, pt := range d.participants {
				if pt.phase != phaseGossip {
					t.Fatalf("participant %d left the gossip phase during measurement", pt.id)
				}
			}
		})
	}
}

// TestMeasureGossipAllocs exercises the CLI/CI measurement helper and
// requires it to agree with the AllocsPerRun proof (zero on the
// accounted backend) and to reject windows that would leak out of the
// gossip phase.
func TestMeasureGossipAllocs(t *testing.T) {
	data := allocTestData(t, 32)
	rep, err := MeasureGossipAllocs(data, allocTestParams(64), 25, 25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AllocsPerCycle != 0 {
		t.Fatalf("MeasureGossipAllocs reports %.2f allocs/cycle, want 0", rep.AllocsPerCycle)
	}
	if rep.Population != 32 || rep.Cycles != 25 {
		t.Fatalf("report shape = %+v", rep)
	}
	if _, err := MeasureGossipAllocs(data, allocTestParams(10), 25, 25); err == nil {
		t.Fatal("window longer than the gossip phase must be rejected")
	}
	if _, err := MeasureGossipAllocs(data, allocTestParams(64), 0, 5); err == nil {
		t.Fatal("empty warm-up must be rejected")
	}
}

// TestMeasureDecryptAllocs exercises the decrypt-phase counterpart of
// the measurement helper: a complete small run must classify at least
// one cycle as decrypt-dominant and report a finite per-cycle average,
// and two shapes must stay under ceilings recorded at 1.30× their
// measurement. Unlike the gossip hot path the figure is not zero: the
// opened plaintexts, the responder sets, the request windows and the
// served partials are fresh per iteration; the fixed-point encode and
// decode allocate nothing once their pooled scratch is warm.
//
// The two shapes keep the names they had when a run could leave its
// sides unpacked; both now pack at encryption, so each opens one
// ciphertext per slot group:
//
//   - unpacked, the shape bench/ reports as core.decrypt_allocs_per_cycle
//     (N=512, CER dim=4, K=2, ε=50, 2 iterations, 12 rounds, threshold
//     8): 7,606 allocs/cycle on this data (15,244 when it opened packed
//     sums of per-coordinate ciphertexts, 23,948 when it decoded through
//     math/big temporaries);
//   - packed, sim-deep's shape at a tier-1 size (N=128, CER dim=24, K=5,
//     ε=1, 22 rounds, threshold 16, moving-average smoothing): 4,032
//     allocs/cycle (8,518 with biased slots in a 320-bit ring, 115,269
//     through math/big temporaries). Under -race, where sync.Pool drops
//     a quarter of its Puts, 4,097: a fresh scratch block is one arena.
func TestMeasureDecryptAllocs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n, dim   int
		p        Params
		measured float64 // 0 = shape checks only
	}{
		{"small", 24, 4, Params{K: 2, Epsilon: 50, Iterations: 1, Seed: 11, GossipRounds: 6, DecryptThreshold: 3}, 0},
		{"unpacked", 512, 4, Params{K: 2, Epsilon: 50, Iterations: 2, Seed: 11, GossipRounds: 12, DecryptThreshold: 8}, 7606},
		{"packed", 128, 24, Params{K: 5, Epsilon: 1, Iterations: 2, Seed: 11, GossipRounds: 22, DecryptThreshold: 16,
			Smoothing: SmoothingSpec{Method: SmoothingMovingAverage}}, 4032},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := MeasureDecryptAllocs(allocTestSeries(t, tc.n, tc.dim), tc.p)
			if err != nil {
				t.Fatal(err)
			}
			if rep.DecryptCycles < 1 {
				t.Fatalf("no decrypt-classified cycles in report %+v", rep)
			}
			if rep.Population != tc.n {
				t.Fatalf("report population = %d, want %d", rep.Population, tc.n)
			}
			if rep.AllocsPerCycle < 0 || rep.BytesPerCycle < 0 {
				t.Fatalf("negative averages in report %+v", rep)
			}
			if tc.measured > 0 {
				ceiling := tc.measured * 1.30
				t.Logf("n=%d: %.0f allocs/cycle over %d decrypt cycles (ceiling %.0f)", tc.n, rep.AllocsPerCycle, rep.DecryptCycles, ceiling)
				if rep.AllocsPerCycle > ceiling {
					t.Errorf("decrypt phase allocates %.0f objects/cycle, ceiling is %.0f", rep.AllocsPerCycle, ceiling)
				}
			}
		})
	}
}

// TestHotPathGateMatrix pins the one storage decision the gossip path
// makes — parity buffers without a fault plan, fresh storage under any
// fault plan — and the operation invariants every configuration keeps on
// both backends: every halving is the exponent's, paid as one refresh
// per emitted cipher, and — on the fault-free configurations — doublings
// happen exactly when churn skews the exponents.
func TestHotPathGateMatrix(t *testing.T) {
	data := allocTestData(t, 16)
	base := allocTestParams(12)
	base.DecryptThreshold = 3
	base.Iterations = 3
	dj := func(p *Params) { p.Backend, p.ModulusBits = BackendDamgardJurik, 256 }
	churn := func(p *Params) { p.ChurnCrashProb, p.ChurnRejoinProb = 0.01, 0.2 }

	for _, tc := range []struct {
		name   string
		mutate func(*Params)
		parity bool
	}{
		{"plain fault-free", func(*Params) {}, true},
		{"plain with churn", churn, true},
		{"plain fault plan", func(p *Params) { p.Faults = mustPlan(t, "drop=0.1") }, false},
		{"dj fault-free", dj, true},
		{"dj with churn", func(p *Params) { dj(p); churn(p) }, true},
		{"dj fault plan", func(p *Params) { dj(p); p.Faults = mustPlan(t, "drop=0.1") }, false},
	} {
		p := base
		tc.mutate(&p)
		if got := openTestRun(t, data, p).parityEmits; got != tc.parity {
			t.Errorf("%s: parity emission buffers = %v, want %v", tc.name, got, tc.parity)
		}
		tr, err := Run(data, p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tr.Ops.Refreshes == 0 || tr.Ops.Halvings != tr.Ops.Refreshes {
			t.Errorf("%s: %+v, want every halving the exponent's", tc.name, tr.Ops)
		}
		if !tc.parity {
			continue // faulted deliveries skew exponents too
		}
		if churned := p.ChurnCrashProb > 0; churned != (tr.Ops.Doublings > 0) {
			t.Errorf("%s: %d doublings, want them exactly when churn skews the exponents", tc.name, tr.Ops.Doublings)
		}
	}
}
