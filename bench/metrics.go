package main

import (
	"fmt"
	"io"
)

// spec names one metric as BENCHMARK.json does. The smoke test holds the
// two lists against that file, so a metric cannot be emitted under a
// name, unit or direction the driver was not told.
type spec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median
}

// endToEndSpec is every end-to-end metric, reported on every workload.
// README.md gives each definition, how the workload kinds differ, and the
// run-to-run spreads the bounds were set from: every clock-derived metric
// has the widest bound the driver takes, because on the builder's box (two
// shared processors) a set of ten runs spreads by up to 19% and its
// median moves by up to 23% whatever a single run does.
var endToEndSpec = []spec{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"participant_iters_per_s", "1/s", "higher", 0.25},
	{"cpu_s_per_participant", "s", "lower", 0.25},
	{"wire_bytes_per_participant", "B", "lower", 0.01},
	{"alloc_mb", "MB", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"epoch_ms", "ms", "lower", 0.25},
	{"window_s", "s", "lower", 0.25},
}

// endToEnd computes the end-to-end metrics from the cold set-ups and the
// timed repetitions: every value is a median over its samples.
func endToEnd(m map[string]metric, w workload, setups []setupSample, timed []*outcome) {
	n := float64(w.n)
	vals := map[string][]float64{}
	add := func(name string, v ...float64) { vals[name] = append(vals[name], v...) }
	for _, s := range setups {
		add("setup_s", s.SetupS)
		add("peak_rss_mb", s.PeakRSSMB)
	}
	for _, o := range timed {
		add("wall_s", o.wall.Seconds())
		add("participant_iters_per_s", n*float64(o.iterations)/o.wall.Seconds())
		add("cpu_s_per_participant", o.cpu.Seconds()/n)
		add("wire_bytes_per_participant", float64(o.wireBytes)/n)
		add("alloc_mb", float64(o.alloc)/1e6)
		var run float64
		for _, d := range o.windows {
			add("window_s", d.Seconds())
			run += d.Seconds()
		}
		if w.kind == kindMesh {
			// (terminated − ready) ÷ E on every node.
			add("epoch_ms", o.epochMS...)
		} else {
			// One simulator cycle is one epoch of the protocol clock.
			add("epoch_ms", 1e3*run/float64(o.cycles))
		}
	}
	for _, s := range endToEndSpec {
		m[s.name] = metric{Value: median(vals[s.name]), Unit: s.unit}
	}
}

// printEndToEnd prints the end-to-end table of one workload.
func printEndToEnd(w io.Writer, wl workload, m map[string]metric, reps, setups, failed, attempted int) {
	fmt.Fprintf(w, "\n%s  (n=%d, %d timed repetitions, %d cold set-ups, medians)\n", wl.name, wl.n, reps, setups)
	for _, s := range endToEndSpec {
		fmt.Fprintf(w, "  %-28s %16.6g %-5s (%s is better, bound %.3g%%)\n", s.name, m[s.name].Value, s.unit, s.better, 100*s.bound)
	}
	fmt.Fprintf(w, "  %-28s %16.6g %-5s (%d of %d participant-runs failed)\n", "failed_share",
		float64(failed)/float64(max(attempted, 1)), "", failed, attempted)
}

// printMetrics prints the metrics of specs that m holds, in spec order.
func printMetrics(w io.Writer, title string, specs []spec, m map[string]metric) {
	fmt.Fprintf(w, "\n%s\n", title)
	for _, s := range specs {
		if v, ok := m[s.name]; ok {
			fmt.Fprintf(w, "  %-44s %16.6g %s\n", s.name, v.Value, s.unit)
		}
	}
}
