package core

import (
	"math"
	"math/big"
	"reflect"
	"runtime"
	"testing"

	"chiaroscuro/internal/p2p"
)

// allZero reports whether every element of s, up to its capacity, is
// its type's zero value: a truncated buffer that pins nothing.
func allZero[T any](s []T) bool {
	var zero T
	for _, v := range s[:cap(s)] {
		if !reflect.DeepEqual(v, zero) {
			return false
		}
	}
	return true
}

// TestRebindEmptiesStorage binds a cycle driver again in the middle of a
// run — participants mid-decrypt, with asks in flight, a served memo, a
// collected partial set and a finished iteration each, and responses in
// the scratch blocks — and checks what cycleDriver.bind promises: every
// participant is field for field the one a fresh bind builds, its
// buffers keep their capacity but hold no reference to a payload,
// partial or record, every block is released, and the rebound run is
// bit for bit the one-shot run at the new seed.
func TestRebindEmptiesStorage(t *testing.T) {
	data := blobs(16, 4, 2)
	params := Params{K: 2, Epsilon: 50, Iterations: 2, Seed: 3, GossipRounds: 6, DecryptThreshold: 3}
	pop, err := openPopulation(data, params)
	if err != nil {
		t.Fatal(err)
	}
	defer pop.close()
	r, err := pop.bind(pop.p)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newCycleDriver(r)
	if err != nil {
		t.Fatal(err)
	}
	midWindow := func() *participant {
		for _, pt := range d.participants {
			if pt.phase == phaseDecrypt && len(pt.history) > 0 && len(pt.window.asks) > 0 && pt.service.ciphers != nil {
				return pt
			}
		}
		return nil
	}
	// served counts the decrypt responses the blocks hold.
	served := func() (n int) {
		for i := range d.blocks {
			for _, rb := range d.blocks[i].responses {
				n += rb.used
			}
		}
		return n
	}
	var q *participant
	for range r.params.maxCycles() {
		d.nw.RunCycle()
		if q = midWindow(); q != nil && served() > 0 {
			break
		}
	}
	if q == nil || served() == 0 {
		t.Fatal("no participant ever sat in a second decrypt window while responses were in flight")
	}
	// A fault-free window collects its quorum in one activation, so no
	// partial set is ever pending at a cycle boundary: put one there.
	parts := make([]Partial, r.sideCiphers)
	for i := range parts {
		parts[i] = Partial{Index: 2, Value: big.NewInt(5)}
	}
	q.window.collect(r, parts)
	historyAt, keptAt := &q.history[0], &q.window.kept[0][0]

	again := params
	again.Seed = 77
	p2 := pop.p
	p2.Seed = again.Seed
	r2, err := pop.bind(p2)
	if err != nil {
		t.Fatal(err)
	}
	opsBefore := pop.suite.Counts()
	if err := d.bind(r2); err != nil {
		t.Fatal(err)
	}
	for i, pt := range d.participants {
		fresh := r2.newParticipant(p2p.NodeID(i))
		if pt.rngSrc.State() != fresh.rngSrc.State() {
			t.Fatalf("participant %d: RNG not reseeded to the new run's stream", i)
		}
		got, want := *pt, *fresh
		got.storage, want.storage = storage{}, storage{}
		got.rng, got.rngSrc, want.rng, want.rngSrc = nil, nil, nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("participant %d: protocol state after rebind differs from a fresh bind:\n  got  %+v\n  want %+v", i, got, want)
		}
		s := pt.storage
		if !allZero(s.window.partials) || !allZero(s.history) || !allZero(s.service.parts) {
			t.Fatalf("participant %d: a truncated buffer still holds references", i)
		}
		if len(s.means.V) != 0 || !allZero(s.means.V) || s.means.W != 0 || s.means.H != 0 {
			t.Fatalf("participant %d: the kept push-sum state survived the rebind", i)
		}
		if len(s.window.partials)+len(s.history)+len(s.service.parts)+len(s.window.asks) != 0 {
			t.Fatalf("participant %d: storage not truncated", i)
		}
		for _, set := range s.window.kept {
			if !allZero(set) {
				t.Fatalf("participant %d: a kept partial set survived the rebind", i)
			}
		}
		if !allZero(s.emitPayloads[:]) {
			t.Fatalf("participant %d: an emission survived the rebind", i)
		}
		// Beside their buffers, the decrypt window and service hold what a
		// fresh bind gives them: no request, memo key or counter, and an
		// opening only of the new run's width.
		w, sv := s.window, s.service
		if len(w.own.Ciphers) == r2.sideCiphers {
			w.own.Ciphers = nil
		}
		w.kept, w.partials, w.asks, sv.parts = nil, nil, nil, nil
		if !reflect.DeepEqual(w, requester{}) || !reflect.DeepEqual(sv, responder{}) {
			t.Fatalf("participant %d: the decrypt state survived the rebind:\n  window  %+v\n  service %+v", i, w, sv)
		}
		for _, m := range s.emitMsgs {
			if m.W != 0 || m.H != 0 || (m.V != nil && len(m.V) != r2.sideCiphers) {
				t.Fatalf("participant %d: emission message %+v after rebind", i, m)
			}
		}
	}
	if &q.history[:1][0] != historyAt || &q.window.kept[0][:1][0] != keptAt {
		t.Fatal("rebind reallocated storage it should have kept")
	}
	for i := range d.blocks {
		b := &d.blocks[i]
		if b.run != nil || !allZero(b.batch) || !allZero(b.col) {
			t.Fatalf("block %d: still bound, or its gossip batch holds references", i)
		}
		for _, rb := range b.responses {
			for _, resp := range rb.bufs {
				if resp.Iter != 0 || !allZero(resp.Partials) {
					t.Fatalf("block %d: a response buffer survived the rebind", i)
				}
			}
			if rb.used != 0 || rb.cycle != 0 {
				t.Fatalf("block %d: %d response buffers of cycle %d still in use", i, rb.used, rb.cycle)
			}
		}
	}

	tr, err := d.run()
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Run(data, again)
	if err != nil {
		t.Fatal(err)
	}
	assertTracesBitIdentical(t, tr, oracle, "rebound vs one-shot")
	if ops := opCountsMinus(tr.Ops, opsBefore); ops != oracle.Ops {
		t.Fatalf("ops %+v vs one-shot %+v", ops, oracle.Ops)
	}
}

// TestRebindRefusals: a driver is bound again only to a fault-free run
// over a population of its own size.
func TestRebindRefusals(t *testing.T) {
	const want = "core: a cycle driver is bound again only to a fault-free run over its own population"
	data := blobs(12, 3, 2)
	base := Params{K: 2, Epsilon: 50, Iterations: 1, Seed: 3, GossipRounds: 4, DecryptThreshold: 3}
	faulted := base
	faulted.Faults = mustPlan(t, "garble=1")
	for _, tc := range []struct {
		name        string
		first, next Params
		nextData    [][]float64
	}{
		{"faulted next run", base, faulted, data},
		{"faulted first run", faulted, base, data},
		{"other population", base, base, blobs(13, 3, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := newCycleDriver(openTestRun(t, data, tc.first))
			if err != nil {
				t.Fatal(err)
			}
			if err := d.bind(openTestRun(t, tc.nextData, tc.next)); err == nil || err.Error() != want {
				t.Fatalf("rebind: %v, want %q", err, want)
			}
		})
	}
}

// TestInitialCentroidsNeverWritten: participants start from the run's
// initial centroids by reference, so the caller's InitialCentroids must
// come back bit for bit unchanged — after the most hostile faulted run
// (the kitchen-sink plan of golden_faults.json: late syncs, resets,
// byzantine senders) and after a warm-started session's windows.
func TestInitialCentroidsNeverWritten(t *testing.T) {
	centroids := func(k, dim int) ([][]float64, [][]uint64) {
		m := make([][]float64, k)
		bits := make([][]uint64, k)
		for j := range m {
			m[j] = make([]float64, dim)
			bits[j] = make([]uint64, dim)
			for t := range m[j] {
				m[j][t] = 0.2 + 0.6*float64(j)/float64(k) + 0.01*float64(t)
				bits[j][t] = math.Float64bits(m[j][t])
			}
		}
		return m, bits
	}
	unchanged := func(label string, m [][]float64, bits [][]uint64) {
		t.Helper()
		for j := range m {
			for tt := range m[j] {
				if math.Float64bits(m[j][tt]) != bits[j][tt] {
					t.Fatalf("%s: caller's initial centroid %d[%d] was overwritten", label, j, tt)
				}
			}
		}
	}

	cfg := goldenFaultConfigs(t)[0]
	for _, workers := range []int{0, 5} {
		p := cfg.params
		p.Workers = workers
		var bits [][]uint64
		p.InitialCentroids, bits = centroids(p.K, len(cfg.data[0]))
		if _, err := Run(cfg.data, p); err != nil {
			t.Fatal(err)
		}
		unchanged(cfg.name, p.InitialCentroids, bits)
	}

	const windows = 3
	initial, steps, _ := streamFeed(48, 6, windows, 2, 3)
	base := streamBase()
	var bits [][]uint64
	base.InitialCentroids, bits = centroids(base.K, 6)
	s, err := NewRunSession(initial, SessionParams{Base: base, LifetimeEpsilon: 60, Windows: windows, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for w := range windows {
		var pts [][]float64
		if w > 0 {
			pts = steps[w-1]
		}
		if _, err := s.Advance(pts); err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
	}
	unchanged("warm session", base.InitialCentroids, bits)
}

// TestStreamWindowAllocations is the allocation gate of the session's
// kept cycle driver, on the shape of bench's stream-warm workload (N =
// 1000, two workers, warm start): window 0 lays out the network, the
// participants and their buffers; every later window rebinds them, so
// it must allocate at most a third of window 0's bytes. Rebuilding the
// population per window allocated about as much in every window.
func TestStreamWindowAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instruments allocations")
	}
	if testing.Short() {
		t.Skip("N = 1000 stream")
	}
	const windows, slide, dim = 4, 2, 8
	initial, steps, _ := streamFeed(1000, dim, windows, slide, 3)
	s, err := NewRunSession(initial, SessionParams{
		Base: Params{K: 3, Iterations: 10, ConvergeThreshold: 0.08, GossipRounds: 10,
			DecryptThreshold: 8, Seed: 1, Workers: 2},
		LifetimeEpsilon: 4000,
		Windows:         windows,
		WarmStart:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var ms runtime.MemStats
	bytes := make([]uint64, windows)
	for w := range windows {
		var pts [][]float64
		if w > 0 {
			pts = steps[w-1]
		}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := s.Advance(pts); err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		runtime.ReadMemStats(&ms)
		bytes[w] = ms.TotalAlloc - before
	}
	t.Logf("bytes allocated per window: %v", bytes)
	for w, b := range bytes[1:] {
		if 3*b > bytes[0] {
			t.Errorf("window %d allocated %d B, more than a third of window 0's %d B", w+1, b, bytes[0])
		}
	}
}
