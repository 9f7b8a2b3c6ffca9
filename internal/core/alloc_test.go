package core

import (
	"fmt"
	"testing"

	"chiaroscuro/internal/datasets"
	"chiaroscuro/internal/p2p"
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

// idleCycleAllocs is what one cycle of an idle network of n nodes over
// the given shard workers allocates — the launches of its worker
// goroutines, nothing at one shard — measured as
// p2p.TestMovingInDegreeAllocatesNothing measures its idle baseline. A
// gate over that many workers holds a cycle to it plus its own ceiling.
func idleCycleAllocs(t *testing.T, n, workers int) float64 {
	t.Helper()
	nw, err := p2p.New(n, func(p2p.NodeID) p2p.Protocol { return idleNode{} }, p2p.Options{Seed: 1, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	nw.Run(3)
	return testing.AllocsPerRun(10, nw.RunCycle)
}

// idleNode drains its inbox and sends nothing.
type idleNode struct{}

func (idleNode) NextCycle(ctx *p2p.Context) { ctx.Inbox() }

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
// 256-bit key, 64 refreshes per cycle), held at 0.05 per refresh. The run is deterministic (fixed seed), so
// the buffer capacities the warm-up grows are the ones the measured
// window needs: every scratch block sizes its gossip batch for the
// population at once, and the rest follows the shards' volumes. Over
// four shard workers a cycle is held to what an idle four-shard
// network allocates (idleCycleAllocs): the scratch blocks add nothing.
// Under -race the Damgård–Jurik figure is logged but not
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
		workers          int
	}{
		{"plain", 48, 40, 40, BackendPlainAccounted, 0, 0, 0},
		{"dj256", 16, 8, 8, BackendDamgardJurik, 256, 0.05, 0},
		{"plain-workers4", 48, 40, 40, BackendPlainAccounted, 0, 0, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := allocTestData(t, tc.n)
			p := allocTestParams(tc.warm + tc.measure + 8)
			p.Backend, p.ModulusBits, p.Workers = tc.backend, tc.bits, tc.workers
			r := openTestRun(t, data, p)
			if !r.parityEmits {
				t.Fatal("a fault-free cycle-driven run must emit into parity buffers")
			}
			d, err := newCycleDriver(r)
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
			idle := idleCycleAllocs(t, tc.n, tc.workers)
			t.Logf("%.2f heap objects per cycle (an idle network: %.0f), %.0f refreshes per cycle", allocs, idle, perCycle)
			if ceiling := tc.allocsPerRefresh*perCycle + idle; allocs > ceiling && !(raceEnabled && tc.backend == BackendDamgardJurik) {
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

// TestDecryptCycleZeroAlloc is the allocation gate of the decrypt phase,
// beside the gossip cycle's. A fault-free run moves through three
// decrypt cycles per iteration in lockstep: every participant freezes
// its opening and asks its quorum (ask), answers the requests it got
// (serve), then combines, decodes and discloses (complete). Two
// iterations warm every buffer — the network's queues and the scratch
// blocks' response sets grow with their shard's volume, which a
// fault-free iteration repeats — then each kind of cycle is measured
// with testing.AllocsPerRun in an iteration of its own. On the accounted
// backend the ask and serve cycles allocate nothing, and the complete
// cycle allocates the disclosed record per completer and nothing else;
// over four shard workers each cycle is held to that plus what an idle
// four-shard network allocates (idleCycleAllocs).
// On Damgård–Jurik a partial decryption and a combine allocate inside
// the big-integer arithmetic, so the cycles are held under ceilings
// recorded at 1.30× their measurement (n=16, 256-bit key): 25 objects
// per partial decryption served, and 315 per ciphertext combined beyond
// the records (10,126 for 16 completers and 32 ciphertexts); its ask
// cycle allocates nothing either. Under -race the pooled temporaries of
// the decode and of the crypto package reach the heap (sync.Pool drops
// Puts on purpose), so only the accounted ask and serve cycles are held
// there; the rest is logged.
func TestDecryptCycleZeroAlloc(t *testing.T) {
	// newRecord: the disclosed centroid rows and their block of floats.
	const recordObjects = 2
	for _, tc := range []struct {
		name    string
		n       int
		backend Backend
		bits    int
		// Damgård–Jurik ceilings: objects per partial decryption in a
		// serve cycle and per combined ciphertext in a complete cycle
		// (beyond the records).
		perPartial, perCombine float64
		workers                int
	}{
		{"plain", 48, BackendPlainAccounted, 0, 0, 0, 0},
		{"dj256", 16, BackendDamgardJurik, 256, 32.5, 410, 0},
		{"plain-workers4", 48, BackendPlainAccounted, 0, 0, 0, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const rounds = 4
			data := allocTestData(t, tc.n)
			p := Params{K: 2, Epsilon: 50, Iterations: 6, Seed: 11, GossipRounds: rounds, DecryptThreshold: 3,
				Backend: tc.backend, ModulusBits: tc.bits, Workers: tc.workers}
			r := openTestRun(t, data, p)
			d, err := newCycleDriver(r)
			if err != nil {
				t.Fatal(err)
			}
			// advance steps the network until every participant satisfies
			// at: the state one cycle before the one to measure, which
			// testing.AllocsPerRun runs unmeasured first.
			advance := func(what string, at func(*participant) bool) {
				t.Helper()
				for c := 0; c < 4*(rounds+4); c++ {
					all := true
					for _, pt := range d.participants {
						all = all && at(pt)
					}
					if all {
						return
					}
					d.nw.RunCycle()
				}
				t.Fatalf("the network never reached %s in lockstep", what)
			}
			disclosed := func() (n int) {
				for _, pt := range d.participants {
					n += len(pt.history)
				}
				return n
			}
			measure := func(name string, iter int, before, after func(*participant) bool) (allocs float64, completers int, ops OpCounts) {
				t.Helper()
				advance(fmt.Sprintf("the cycle before iteration %d's %s cycle", iter, name), func(pt *participant) bool {
					return pt.iter == iter && before(pt)
				})
				was, opsWas := disclosed(), r.suite.Counts()
				allocs = testing.AllocsPerRun(1, d.nw.RunCycle)
				for _, pt := range d.participants {
					if !after(pt) {
						t.Fatalf("participant %d did not run iteration %d's %s cycle in lockstep", pt.id, iter, name)
					}
				}
				ops = r.suite.Counts()
				ops.PartialDecrypts -= opsWas.PartialDecrypts
				ops.Combines -= opsWas.Combines
				return allocs, disclosed() - was, ops
			}
			decrypting := func(waited int) func(*participant) bool {
				return func(pt *participant) bool {
					return pt.phase == phaseDecrypt && pt.window.waitCycles == waited && (waited > 0) == (pt.window.req != nil)
				}
			}

			ask, askDone, _ := measure("ask", 2, func(pt *participant) bool {
				return pt.phase == phaseGossip && pt.roundsDone == rounds-1
			}, decrypting(1))
			serve, serveDone, served := measure("serve", 3, decrypting(0), decrypting(2))
			complete, completers, combined := measure("complete", 4, decrypting(1), func(pt *participant) bool {
				return pt.phase == phaseAssign && pt.iter == 5
			})
			idle := idleCycleAllocs(t, tc.n, tc.workers)
			t.Logf("objects per cycle: ask %.0f, serve %.0f (%d partial decryptions), complete %.0f (%d completers, %d ciphers combined); an idle network %.0f",
				ask, serve, served.PartialDecrypts, complete, completers, combined.Combines, idle)
			if askDone != 0 || serveDone != 0 || completers != tc.n {
				t.Fatalf("%d and %d participants completed in the ask and serve cycles and %d in the complete cycle, want 0, 0 and %d",
					askDone, serveDone, completers, tc.n)
			}
			held := tc.backend == BackendPlainAccounted || !raceEnabled
			if serveCeiling := tc.perPartial*float64(served.PartialDecrypts) + idle; held && (ask > idle || serve > serveCeiling) {
				t.Errorf("ask and serve cycles allocate %.0f and %.0f objects, ceilings %.0f and %.0f",
					ask, serve, idle, serveCeiling)
			}
			ceiling := float64(completers*recordObjects) + tc.perCombine*float64(combined.Combines) + idle
			if complete > ceiling && !raceEnabled {
				t.Errorf("complete cycle allocates %.0f objects for %d completers, ceiling %.0f", complete, completers, ceiling)
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
// measurement. A steady-state decrypt cycle allocates nothing but the
// disclosed records (TestDecryptCycleZeroAlloc); what these two-iteration
// runs average is mostly the first iteration laying out each
// participant's decrypt storage — its opening, request window, partial
// slab and history — and the shards' scratch blocks their response
// sets, plus one record per completer per iteration.
//
// The two shapes keep the names they had when a run could leave its
// sides unpacked; both now pack at encryption, so each opens one
// ciphertext per slot group:
//
//   - unpacked, the shape bench/ reports as core.decrypt_allocs_per_cycle
//     (N=512, CER dim=4, K=2, ε=50, 2 iterations, 12 rounds, threshold
//     8): 1,200 allocs/cycle on this data (1,451 with per-participant
//     scratch, 1,622 while the next
//     centroids were built in a spare matrix apart from the disclosed
//     record, 7,606 when every iteration allocated its decrypt storage
//     afresh, 15,244 when it opened packed
//     sums of per-coordinate ciphertexts, 23,948 when it decoded through
//     math/big temporaries);
//   - packed, sim-deep's shape at a tier-1 size (N=128, CER dim=24, K=5,
//     ε=1, 22 rounds, threshold 16, moving-average smoothing): 304
//     allocs/cycle (384 with per-participant scratch, 427 with a spare
//     centroid matrix, 4,032 with fresh
//     decrypt storage per iteration, 8,518 with biased slots in a
//     320-bit ring, 115,269 through math/big temporaries).
//
// Under -race, where sync.Pool drops a quarter of its Puts, pooled
// temporaries reach the heap, a larger share of so small a figure: the
// rows are recorded there too, at the highest of a few runs (1,288 and
// 327 in each of four; unpacked 1,869–1,894 and packed 482–506 over six
// while every participant kept scratch of its own and the codec working
// storage was pooled as well).
func TestMeasureDecryptAllocs(t *testing.T) {
	for _, tc := range []struct {
		name            string
		n, dim          int
		p               Params
		measured, raced float64 // 0 = shape checks only
	}{
		{"small", 24, 4, Params{K: 2, Epsilon: 50, Iterations: 1, Seed: 11, GossipRounds: 6, DecryptThreshold: 3}, 0, 0},
		{"unpacked", 512, 4, Params{K: 2, Epsilon: 50, Iterations: 2, Seed: 11, GossipRounds: 12, DecryptThreshold: 8}, 1200, 1288},
		{"packed", 128, 24, Params{K: 5, Epsilon: 1, Iterations: 2, Seed: 11, GossipRounds: 22, DecryptThreshold: 16,
			Smoothing: SmoothingSpec{Method: SmoothingMovingAverage}}, 304, 327},
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
				if raceEnabled {
					ceiling = tc.raced * 1.30
				}
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
// fault plan other than churn alone — and the operation invariants every
// configuration keeps on both backends: every halving is the exponent's,
// paid as one refresh per emitted cipher, and — on the parity
// configurations — doublings happen exactly when churn skews the
// exponents.
func TestHotPathGateMatrix(t *testing.T) {
	data := allocTestData(t, 16)
	base := allocTestParams(12)
	base.DecryptThreshold = 3
	base.Iterations = 3
	dj := func(p *Params) { p.Backend, p.ModulusBits = BackendDamgardJurik, 256 }
	churn := func(p *Params) { p.Faults = mustPlan(t, "churn=0.01/0.2") }

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
		if churned := !p.Faults.Empty(); churned != (tr.Ops.Doublings > 0) {
			t.Errorf("%s: %d doublings, want them exactly when churn skews the exponents", tc.name, tr.Ops.Doublings)
		}
	}
}
