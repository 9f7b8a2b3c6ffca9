package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"chiaroscuro/internal/p2p"
)

// golden_test.go pins the disclosed trajectories of seeded small runs as
// committed fixtures, so a refactor anywhere in the stack — engines,
// gossip, fixed point, packing, crypto fast paths — cannot silently
// change what the protocol discloses. Floats are stored as IEEE-754 bit
// patterns (hex), compared exactly.
//
// Regenerate after an *intentional* disclosure change with:
//
//	go test ./internal/core -run Golden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden trajectory fixtures")

const goldenPath = "testdata/golden_trajectories.json"

// goldenRun is one pinned configuration's disclosed outcome.
type goldenRun struct {
	Name string
	// Iterations[i][j] is iteration i's disclosed centroid j, each
	// coordinate an IEEE-754 bit pattern in hex.
	Iterations [][][]string
	// Counts[i] are iteration i's disclosed relative cluster sizes.
	Counts [][]string
	// Final are the final centroids.
	Final [][]string
}

// goldenConfigs are the pinned runs: both backends plus the
// inertia-tracking disclosure variant. Populations and key sizes are
// small enough for CI but exercise the full protocol. The names predate
// packing at encryption, when a run could also be "packed"; the fixture
// keeps them.
func goldenConfigs() []struct {
	name   string
	data   [][]float64
	params Params
} {
	plain := blobs(48, 4, 3)
	dj := blobs(16, 3, 2)
	base := Params{K: 3, Epsilon: 20, Iterations: 3, Seed: 41, GossipRounds: 10, DecryptThreshold: 4}
	inertia := base
	inertia.TrackInertia = true
	djBase := Params{
		K: 2, Epsilon: 100, Iterations: 2, Seed: 17,
		GossipRounds: 8, DecryptThreshold: 4,
		Backend: BackendDamgardJurik, ModulusBits: 128,
	}
	return []struct {
		name   string
		data   [][]float64
		params Params
	}{
		{"plain-unpacked", plain, base},
		{"plain-inertia", plain, inertia},
		{"dj-unpacked", dj, djBase},
	}
}

func hexFloat(v float64) string {
	return strconv.FormatUint(math.Float64bits(v), 16)
}

func hexMatrix(m [][]float64) [][]string {
	out := make([][]string, len(m))
	for i, row := range m {
		out[i] = make([]string, len(row))
		for j, v := range row {
			out[i][j] = hexFloat(v)
		}
	}
	return out
}

func hexVector(v []float64) []string {
	out := make([]string, len(v))
	for i, x := range v {
		out[i] = hexFloat(x)
	}
	return out
}

func goldenFromTrace(name string, tr *Trace) goldenRun {
	g := goldenRun{Name: name, Final: hexMatrix(tr.FinalCentroids)}
	for _, it := range tr.Iterations {
		g.Iterations = append(g.Iterations, hexMatrix(it.PerturbedCentroids))
		g.Counts = append(g.Counts, hexVector(it.PerturbedCounts))
	}
	return g
}

// TestGoldenTrajectories compares every pinned configuration — run under
// both the sequential and the sharded engine — against the committed
// fixture, bit for bit.
func TestGoldenTrajectories(t *testing.T) {
	var got []goldenRun
	for _, cfg := range goldenConfigs() {
		seq, err := Run(cfg.data, cfg.params)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		shParams := cfg.params
		shParams.Workers = 5
		sh, err := Run(cfg.data, shParams)
		if err != nil {
			t.Fatalf("%s sharded: %v", cfg.name, err)
		}
		assertTracesBitIdentical(t, seq, sh, cfg.name+" sharded-vs-seq")
		got = append(got, goldenFromTrace(cfg.name, seq))
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d runs", goldenPath, len(got))
		return
	}

	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing fixture (run with -update-golden to create): %v", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("fixture has %d runs, produced %d (regenerate with -update-golden)", len(want), len(got))
	}
	for i := range want {
		if err := diffGolden(want[i], got[i]); err != nil {
			t.Errorf("%s: disclosed trajectory changed: %v\n(if intentional, regenerate with -update-golden)", want[i].Name, err)
		}
	}
}

func diffGolden(want, got goldenRun) error {
	if want.Name != got.Name {
		return fmt.Errorf("name %q vs %q", want.Name, got.Name)
	}
	if len(want.Iterations) != len(got.Iterations) {
		return fmt.Errorf("%d vs %d iterations", len(want.Iterations), len(got.Iterations))
	}
	for i := range want.Iterations {
		if err := diffHexMatrix(want.Iterations[i], got.Iterations[i]); err != nil {
			return fmt.Errorf("iteration %d centroids: %w", i, err)
		}
		if err := diffHexMatrix([][]string{want.Counts[i]}, [][]string{got.Counts[i]}); err != nil {
			return fmt.Errorf("iteration %d counts: %w", i, err)
		}
	}
	if err := diffHexMatrix(want.Final, got.Final); err != nil {
		return fmt.Errorf("final centroids: %w", err)
	}
	return nil
}

func diffHexMatrix(want, got [][]string) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d vs %d rows", len(want), len(got))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			return fmt.Errorf("row %d: %d vs %d cols", i, len(want[i]), len(got[i]))
		}
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				wb, _ := strconv.ParseUint(want[i][j], 16, 64)
				gb, _ := strconv.ParseUint(got[i][j], 16, 64)
				return fmt.Errorf("[%d][%d]: %v (%s) vs %v (%s)",
					i, j, math.Float64frombits(wb), want[i][j], math.Float64frombits(gb), got[i][j])
			}
		}
	}
	return nil
}

const goldenFaultsPath = "testdata/golden_faults.json"

// goldenFaultRun is one pinned faulted run: its disclosures and the
// counters the fault paths move (drops, failures, liveness, network and
// operation counts, decrypt traffic).
type goldenFaultRun struct {
	goldenRun
	StaleDrops      int
	DecryptFailures int
	Completed       int
	DecryptRequests int
	DecryptBytes    int64
	NetStats        p2p.Stats
	Ops             OpCounts
}

// goldenFaultConfigs are the pinned faulted runs: the kitchen-sink plan
// of TestFaultScenariosBitIdenticalAcrossWorkers, the noise-skew senders
// of TestFaultScenarioSuite, and the byzantine senders of
// TestByzantineRealCrypto on the 128-bit Damgård–Jurik key.
func goldenFaultConfigs(t *testing.T) []struct {
	name   string
	data   [][]float64
	params Params
} {
	blobs60 := blobs(60, 4, 3)
	scenario := func(spec string, seed int64) Params {
		return Params{K: 3, Epsilon: 50, Iterations: 3, Seed: seed, Faults: mustPlan(t, spec)}
	}
	return []struct {
		name   string
		data   [][]float64
		params Params
	}{
		{"kitchen-sink", blobs60, scenario("drop=0.1;dup=0.05;delay=0.25x3;crash@6=0;outage@3+5=1,2:reset;lag@2+6=3,4;garble=40;malform=41;replay=42;noise*20=43", 23)},
		{"noise-freeride", blobs60, scenario("noise*0=25,26", 11)},
		{"noise-poison", blobs60, scenario("noise*40=27", 11)},
		{"dj-byzantine", blobs(16, 3, 2), Params{
			K: 2, Epsilon: 100, Iterations: 2, Seed: 5,
			GossipRounds: 8, DecryptThreshold: 4,
			Backend: BackendDamgardJurik, ModulusBits: 128,
			Faults: mustPlan(t, "garble=3;malform=4;replay=5"),
		}},
	}
}

func goldenFaultFromTrace(name string, tr *Trace) goldenFaultRun {
	return goldenFaultRun{
		goldenRun:       goldenFromTrace(name, tr),
		StaleDrops:      tr.StaleDrops,
		DecryptFailures: tr.DecryptFailures,
		Completed:       tr.Completed,
		DecryptRequests: tr.DecryptRequests,
		DecryptBytes:    tr.DecryptBytes,
		NetStats:        tr.NetStats,
		Ops:             tr.Ops,
	}
}

// TestGoldenFaults compares every pinned faulted run — sequential and at
// five workers — against the committed fixture: the disclosed bits and
// every counter. The fault scenario tests check invariants and replay;
// this one holds the faulted trajectories themselves.
func TestGoldenFaults(t *testing.T) {
	var got []goldenFaultRun
	for _, cfg := range goldenFaultConfigs(t) {
		seq, err := Run(cfg.data, cfg.params)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		run := goldenFaultFromTrace(cfg.name, seq)
		shParams := cfg.params
		shParams.Workers = 5
		sh, err := Run(cfg.data, shParams)
		if err != nil {
			t.Fatalf("%s sharded: %v", cfg.name, err)
		}
		assertTracesBitIdentical(t, seq, sh, cfg.name+" sharded-vs-seq")
		if shRun := goldenFaultFromTrace(cfg.name, sh); !reflect.DeepEqual(run, shRun) {
			t.Fatalf("%s: sharded counters differ:\n  %+v\n  %+v", cfg.name, run, shRun)
		}
		got = append(got, run)
	}

	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFaultsPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d runs", goldenFaultsPath, len(got))
		return
	}

	buf, err := os.ReadFile(goldenFaultsPath)
	if err != nil {
		t.Fatalf("missing fixture (run with -update-golden to create): %v", err)
	}
	var want []goldenFaultRun
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("fixture has %d runs, produced %d", len(want), len(got))
	}
	for i := range want {
		if err := diffGolden(want[i].goldenRun, got[i].goldenRun); err != nil {
			t.Errorf("%s: disclosed trajectory changed: %v", want[i].Name, err)
		}
		w, g := want[i], got[i]
		w.goldenRun, g.goldenRun = goldenRun{}, goldenRun{}
		if !reflect.DeepEqual(w, g) {
			t.Errorf("%s: counters changed:\n  want %+v\n  got  %+v", want[i].Name, w, g)
		}
	}
}
