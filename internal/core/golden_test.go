package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
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
