package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// metric is one reported value. The JSON shape is the driver's contract.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one invocation.
type options struct {
	seed    int64
	seconds float64 // how long the timed repetitions go on
	reps    int     // >0: exactly this many timed repetitions instead
	trace   bool
	outDir  string // scratch space and trace files
	exe     string // this binary, for cold set-up children; "" = none
	probes  probeScale
	log     io.Writer // human-readable progress and tables
}

// setupSample is one cold set-up: workload start → end of the first run.
type setupSample struct {
	SetupS    float64 `json:"setup_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// coldSetup generates the inputs and performs the first run. It is what
// a -setup-only child does and what every invocation does first.
func coldSetup(w workload, opt options, tr *tracer, parent int) (*inputs, *outcome, setupSample, error) {
	t0 := time.Now()
	sp := tr.begin("bench:setup", parent)
	defer tr.end(sp)
	in, err := w.generate(opt.seed, tr, sp)
	if err != nil {
		return nil, nil, setupSample{}, err
	}
	cold := tr.begin("bench:cold-run", sp)
	o, err := in.runOnce(opt.outDir, tr, cold)
	tr.end(cold)
	if err != nil {
		return nil, nil, setupSample{}, err
	}
	return in, o, setupSample{SetupS: time.Since(t0).Seconds(), PeakRSSMB: peakRSSMB()}, nil
}

// childSetup runs one cold set-up in a fresh process, so that what the
// program caches per process (parsed key fixtures, pools, a grown heap)
// is paid again, and waits for it.
func childSetup(w workload, opt options) (setupSample, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, opt.exe, "-setup-only", "-workload", w.name,
		"-seed", strconv.FormatInt(opt.seed, 10), "-out", opt.outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return setupSample{}, fmt.Errorf("set-up child: %w", err)
	}
	var s setupSample
	if err := json.Unmarshal(out, &s); err != nil {
		return setupSample{}, fmt.Errorf("set-up child printed %q: %w", out, err)
	}
	return s, nil
}

// runSetupOnly is the body of a -setup-only child.
func runSetupOnly(w workload, opt options, stdout io.Writer) error {
	runtime.GOMAXPROCS(workers)
	_, _, s, err := coldSetup(w, opt, nil, 0)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(s)
}

// seeded is the inputs of one derived seed and the first run on them,
// whose disclosure every later run on them must repeat bit for bit.
type seeded struct {
	in    *inputs
	first *outcome
}

// deriveSeed is the seed of a workload's j-th input set; the 0th is the
// command line's own.
func deriveSeed(seed int64, j int) int64 { return seed + int64(j)*1_000_000_007 }

// invocation is one run of the command on one workload.
type invocation struct {
	w     workload
	opt   options
	seeds []seeded   // by derived seed; [0] is what the cold run used
	ref   *reference // meshes only
	tr    *tracer    // nil unless -trace 1
	root  int        // the span everything hangs under

	// One operation is one participant completing its schedule in one run.
	attempted, failed int
	firstErr          error
}

func (iv *invocation) fail(n int, err error) {
	iv.failed += n
	if iv.firstErr == nil {
		iv.firstErr = err
	}
}

// check counts one run's participants and fails those that did not
// complete, every node whose history differs from the reference, and
// every participant of a run that disclosed other bits than the first run
// on the same inputs (derived seed j) did.
func (iv *invocation) check(o *outcome, j int, what string) {
	iv.attempted += iv.w.n
	if o.failed > 0 {
		iv.fail(o.failed, fmt.Errorf("%s: %d participants did not complete", what, o.failed))
	}
	if iv.ref != nil {
		if n, err := o.checkMesh(iv.ref); n > 0 {
			iv.fail(n, fmt.Errorf("%s: %w", what, err))
		}
	}
	if s := &iv.seeds[j]; s.first == nil {
		s.first = o
	} else if !sameDisclosure(o.disclosed, s.first.disclosed) {
		iv.fail(iv.w.n, fmt.Errorf("%s: disclosed centroids differ from the first run's at the same seed", what))
	}
}

// rep performs and checks repetition i, which runs derived seed
// i mod w.seeds (its inputs are generated off the clock on first use),
// after a collection so that one repetition's garbage is not collected on
// the next one's clock. An errored run fails every participant.
func (iv *invocation) rep(tr *tracer, name string, i int) (*outcome, error) {
	j := i % len(iv.seeds)
	s := &iv.seeds[j]
	var err error
	if s.in == nil {
		s.in, err = iv.w.generate(deriveSeed(iv.opt.seed, j), nil, 0)
	}
	var o *outcome
	if err == nil {
		runtime.GC()
		sp := tr.begin(name, iv.root)
		o, err = s.in.runOnce(iv.opt.outDir, tr, sp)
		tr.end(sp)
	}
	if err != nil {
		iv.attempted += iv.w.n
		iv.fail(iv.w.n, fmt.Errorf("%s: %w", name, err))
		return nil, err
	}
	iv.check(o, j, name)
	return o, nil
}

// more reports whether repetition i (0-based) is still to be made: -reps
// of them, or else at least minimum and until the deadline, in whole
// cycles (the timed repetitions cycle through the derived seeds, and every
// one must weigh the same in the medians whatever the machine's speed).
func (iv *invocation) more(i, minimum, cycle int, deadline time.Time) bool {
	if iv.opt.reps > 0 {
		return i < iv.opt.reps
	}
	return i < minimum || i%cycle != 0 || time.Now().Before(deadline)
}

// runWorkload is one invocation on one workload: cold set-ups, then the
// timed repetitions (or, with -trace 1, traced runs and the layer
// probes), with every correctness check along the way.
func runWorkload(w workload, opt options) (*result, error) {
	runtime.GOMAXPROCS(workers)
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	iv := &invocation{w: w, opt: opt, seeds: make([]seeded, max(w.seeds, 1))}
	if opt.trace {
		iv.tr = newTracer(w.name)
	}
	iv.root = iv.tr.begin("bench:workload", 0)

	in, cold, first, err := coldSetup(w, opt, iv.tr, iv.root)
	if err != nil {
		return nil, fmt.Errorf("%s: cold run: %w", w.name, err)
	}
	iv.seeds[0].in = in
	setups := []setupSample{first}
	if opt.exe != "" && !opt.trace {
		for i := 1; i < w.setups; i++ {
			s, err := childSetup(w, opt)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			setups = append(setups, s)
		}
	}
	if w.kind == kindMesh {
		sp := iv.tr.begin("core:RunSequentialHistories", iv.root)
		iv.ref, err = in.reference()
		iv.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: sequential reference: %w", w.name, err)
		}
	}
	iv.check(cold, 0, "cold run")

	res := &result{Metrics: map[string]metric{}}
	if opt.trace {
		if err := iv.traced(res.Metrics); err != nil {
			iv.fail(0, err)
		}
	} else {
		iv.timed(res.Metrics, setups)
	}

	res.Attempted, res.Failed = iv.attempted, iv.failed
	res.Correct = iv.firstErr == nil && iv.failed == 0
	if !res.Correct {
		fmt.Fprintf(opt.log, "%s: INCORRECT: %v (failed_share %d/%d)\n", w.name, iv.firstErr, iv.failed, iv.attempted)
	}
	return res, nil
}

// timed makes the timed repetitions, tracing off, and computes the
// end-to-end metrics.
func (iv *invocation) timed(m map[string]metric, setups []setupSample) {
	var timed []*outcome
	deadline := time.Now().Add(time.Duration(iv.opt.seconds * float64(time.Second)))
	for i := 0; iv.more(i, iv.w.minReps, len(iv.seeds), deadline); i++ {
		o, err := iv.rep(nil, "bench:rep", i)
		if err != nil {
			return
		}
		timed = append(timed, o)
	}
	endToEnd(m, iv.w, setups, timed)
	log := iv.opt.log
	printEndToEnd(log, iv.w, m, len(timed), len(setups), iv.failed, iv.attempted)
	fmt.Fprintf(log, "  calib.modexp2048_us %.0f; wall_s of every repetition:", modexpNS()/1e3)
	for _, o := range timed {
		fmt.Fprintf(log, " %.3f", o.wall.Seconds())
	}
	fmt.Fprintln(log)
}
