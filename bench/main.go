// Command bench is the one benchmark of the whole stack: six named
// workloads, the end-to-end metrics a user of the system would see, a
// per-layer table and a traced run. README.md in this directory defines
// every workload and metric; BENCHMARK.json at the repository root is the
// same contract in the form the driver reads.
//
//	go run ./bench                                  every workload, tables
//	go run ./bench -workload sim-wide -seed 3       one workload, one JSON line last
//	go run ./bench -workload mesh-dj -trace 1       traced run + per-layer metrics
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := flag.String("workload", "", "workload to run: "+strings.Join(names, ", ")+" (default: all, one after the other)")
	seed := flag.Int64("seed", 1, "seed of the dataset generators and of Config.Seed")
	seconds := flag.Float64("seconds", 10, "how long the timed repetitions go on (each workload also has a minimum count)")
	reps := flag.Int("reps", 0, "make exactly this many timed repetitions instead of filling -seconds")
	trace := flag.Int("trace", 0, "1: traced run — spans to <out>/trace-<workload>.jsonl, layer probes, per-layer metrics; 0: timed repetitions, end-to-end metrics")
	out := flag.String("out", "bench/out", "directory for trace files and the meshes' rendezvous and checkpoint files")
	setupOnly := flag.Bool("setup-only", false, "internal: perform one cold set-up of -workload and print its sample (what the benchmark runs in child processes)")
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: unexpected arguments; -trace takes 0 or 1")
		os.Exit(2)
	}

	opt := options{seed: *seed, seconds: *seconds, reps: *reps, trace: *trace == 1, outDir: *out,
		probes: fullProbes, log: os.Stdout}
	// Cold set-ups run in fresh copies of this binary.
	opt.exe, _ = os.Executable()

	run := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
			os.Exit(2)
		}
		run = []workload{w}
	}
	if *setupOnly {
		if len(run) != 1 {
			fmt.Fprintln(os.Stderr, "bench: -setup-only needs -workload")
			os.Exit(2)
		}
		if err := runSetupOnly(run[0], opt, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("chiaroscuro bench: seed=%d GOMAXPROCS=%d workers=%d nproc=%d %s %s/%s\n",
		*seed, workers, workers, runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	ok := true
	var lines []string
	for _, w := range run {
		res, err := runWorkload(w, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		lines = append(lines, string(line))
		ok = ok && res.Correct
	}
	// The result objects come last, one line per workload, so that the
	// last line of standard output is always one.
	fmt.Println()
	for _, l := range lines {
		fmt.Println(l)
	}
	if !ok {
		os.Exit(1)
	}
}
