package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
)

// toy shrinks a workload to smoke-test size: n only (and the key size of
// the Damgård–Jurik workloads), never the shape.
func toy(w workload) workload {
	switch w.kind {
	case kindMesh:
		w.n = 3
	default:
		w.n = min(w.n, 64)
	}
	if w.modulusBits != 0 {
		w.modulusBits = 256
	}
	return w
}

var toyProbes = probeScale{djBits: 256, p2pNodes: 2000, gossipNodes: 128, meshNodes: 3, djMeshNodes: 3, meshIters: 2}

func toyOptions(t *testing.T, trace bool) options {
	return options{seed: 7, reps: 1, trace: trace, outDir: t.TempDir(), probes: toyProbes, log: io.Discard}
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// requireMetrics fails unless res holds exactly the metrics of want, each
// finite, non-zero and in the unit BENCHMARK.json declares.
func requireMetrics(t *testing.T, res *result, want []benchmarkMetric) {
	t.Helper()
	for _, bm := range want {
		got, ok := res.Metrics[bm.Name]
		switch {
		case !ok:
			t.Errorf("metric %s of BENCHMARK.json was not emitted", bm.Name)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value == 0:
			t.Errorf("metric %s = %v, want a finite non-zero value", bm.Name, got.Value)
		case got.Unit != bm.Unit:
			t.Errorf("metric %s emitted in %q, BENCHMARK.json says %q", bm.Name, got.Unit, bm.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
}

// TestBenchmarkFileMatchesCode holds BENCHMARK.json against the workload
// table and the metric specs: the driver must be told exactly what the
// program emits.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i,
				bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got []benchmarkMetric, want []spec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, s := range want {
			g := got[i]
			if g.Name != s.name || g.Unit != s.unit || g.Better != s.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, s)
			}
			if bounded && (g.Bound == nil || *g.Bound != s.bound) {
				t.Errorf("%s %s: bound differs from the program's %v", kind, s.name, s.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: a per-layer metric has no bound", kind, s.name)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEndSpec, true)
	same("per_layer", bf.PerLayer, perLayerSpec, false)
}

// TestSmokeEndToEnd runs every workload at toy size through the timed
// path: all correctness checks, every end-to-end metric.
func TestSmokeEndToEnd(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(toy(w), toyOptions(t, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v failed=%d attempted=%d, want a clean run", res.Correct, res.Failed, res.Attempted)
			}
			requireMetrics(t, res, bf.EndToEnd)
		})
	}
}

// TestSmokeTraced runs one in-process and one mesh workload through the
// traced path: layer probes, node driver, span file, every per-layer
// metric.
func TestSmokeTraced(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, name := range []string{"sim-deep", "mesh-dj"} {
		t.Run(name, func(t *testing.T) {
			w, _ := workloadByName(name)
			opt := toyOptions(t, true)
			res, err := runWorkload(toy(w), opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct=%v failed=%d, want a clean run", res.Correct, res.Failed)
			}
			requireMetrics(t, res, bf.PerLayer)
			if fi, err := os.Stat(opt.outDir + "/trace-" + name + ".jsonl"); err != nil || fi.Size() == 0 {
				t.Errorf("no span file written: %v", err)
			}
		})
	}
}

// TestSameSeedSameCounts is the determinism check of the harness itself:
// two invocations at one seed agree exactly on every exact-count metric,
// and another seed changes the inputs but not the metric names.
func TestSameSeedSameCounts(t *testing.T) {
	exact := []string{
		"core.encrypts_per_participant_iter", "core.adds_per_participant_iter",
		"core.halvings_per_participant_iter", "core.partial_decrypts_per_participant_iter",
		"core.combines_per_participant_iter", "core.decrypt_requests_per_participant_iter",
		"core.window_iterations", "transport.socket_writes_per_node_epoch",
		"quality.inertia_ratio", "gossip.cycles_to_1e-6",
	}
	w, _ := workloadByName("stream-warm")
	w = toy(w)
	run := func(seed int64, trace bool) *result {
		opt := toyOptions(t, trace)
		opt.seed = seed
		res, err := runWorkload(w, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(7, true), run(7, true), run(8, true)
	for _, name := range exact {
		if a.Metrics[name].Value != b.Metrics[name].Value {
			t.Errorf("%s: %v then %v at the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
	if len(a.Metrics) != len(c.Metrics) {
		t.Errorf("seed 8 emitted %d metrics, seed 7 %d", len(c.Metrics), len(a.Metrics))
	}
	for name := range a.Metrics {
		if _, ok := c.Metrics[name]; !ok {
			t.Errorf("seed 8 did not emit %s", name)
		}
	}
	if a.Metrics["quality.inertia_ratio"].Value == c.Metrics["quality.inertia_ratio"].Value {
		t.Error("seeds 7 and 8 disclosed the same quality: the seed does not reach the inputs")
	}
	x, y := run(7, false), run(7, false)
	if x.Metrics["wire_bytes_per_participant"].Value != y.Metrics["wire_bytes_per_participant"].Value {
		t.Errorf("wire_bytes_per_participant: %v then %v at the same seed",
			x.Metrics["wire_bytes_per_participant"].Value, y.Metrics["wire_bytes_per_participant"].Value)
	}
}
