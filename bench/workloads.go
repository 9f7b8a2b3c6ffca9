package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"chiaroscuro"
	"chiaroscuro/internal/core"
	"chiaroscuro/internal/kmeans"
	"chiaroscuro/internal/transport/conformance"
)

// workers pins GOMAXPROCS and Config.Workers: the load is sized for two
// cores whatever the host has, so that numbers from different hosts
// differ by clock speed and not by scheduling.
const workers = 2

// kind selects which public entry point a workload drives.
type kind int

const (
	kindCluster kind = iota // chiaroscuro.Cluster
	kindStream              // chiaroscuro.OpenStream + Advance
	kindMesh                // transport.Run × nodes over loopback TCP
)

// workload is one named set of inputs. Only n (and, for the toy sizes of
// the smoke tests, modulusBits) may be scaled; everything else is the
// shape, and the shape is what the name stands for.
type workload struct {
	name string
	why  string
	kind kind
	n    int // participants (mesh: nodes)

	dataset string // "cer", "tumor" or "blobs"
	dim     int
	cfg     chiaroscuro.Config // kindCluster, kindStream; K/Iterations/… also shape the mesh

	windows, slide  int // kindStream
	checkpointEvery int // kindMesh, 0 = off
	modulusBits     int // Damgård–Jurik workloads

	setups  int // cold set-ups per invocation (this process + setups−1 children)
	minReps int // timed repetitions to make even when -seconds is already spent
	// seeds > 1: the repetitions cycle through that many input sets, each
	// from its own derived seed, because the amount of work depends on the
	// seed and the medians must not (in-process workloads only).
	seeds int
}

// The six workloads. Sizes are for a two-core box and the driver's time
// cap; see README.md for the sizing rule (scale n, keep the shape).
var workloads = []workload{
	{
		name: "sim-wide",
		why:  "N=10000 CER dim=4 K=2 accounted sharded unpacked: many participants, tiny vectors; p2p queues, in-place gossip and the decrypt window do the work, big-integer crypto, wire and transport none",
		kind: kindCluster, n: 10000, dataset: "cer", dim: 4,
		cfg: chiaroscuro.Config{K: 2, Epsilon: 50, Iterations: 2, GossipRounds: 12, DecryptThreshold: 8,
			Engine: "sharded", Workers: workers},
		setups: 3, minReps: 5,
	},
	{
		name: "sim-deep",
		why:  "N=400 CER dim=24 K=5 8 iterations accounted sharded packed: few participants, long vectors; suite vector ops, fixedpoint slots, dp noise shares and assignment do the work, p2p little",
		kind: kindCluster, n: 400, dataset: "cer", dim: 24,
		// GossipRounds and DecryptThreshold are the defaults of the
		// issue's N=3000, pinned so that scaling n keeps the shape.
		cfg: chiaroscuro.Config{K: 5, Epsilon: 1, Iterations: 8, GossipRounds: 22, DecryptThreshold: 16,
			Engine: "sharded", Workers: workers, Packed: true,
			Smoothing: chiaroscuro.Smoothing{Method: "moving-average"}},
		setups: 3, minReps: 5,
	},
	{
		name: "crypto-dj",
		why:  "N=5 tumor dim=10 K=2 Damgard-Jurik 1024-bit s=1 cycles engine unpacked: >=95% big-integer arithmetic; a p2p, wire or transport change must show nothing here",
		kind: kindCluster, n: 5, dataset: "tumor", dim: 10,
		cfg: chiaroscuro.Config{K: 2, Epsilon: 100, Iterations: 2, GossipRounds: 8, DecryptThreshold: 4,
			Engine: "cycles", Backend: chiaroscuro.BackendDamgardJurik, Degree: 1},
		modulusBits: 1024,
		setups:      1, minReps: 2,
	},
	{
		name: "mesh-plain",
		why:  "16 transport.Run nodes over loopback TCP, accounted, tumor dim=10 K=2, 32 iterations, checkpoint every 4 epochs: the protocol costs ~40 ms, the rest is barrier, framing, socket writes and fsync",
		kind: kindMesh, n: 16, dataset: "tumor", dim: 10,
		cfg:             chiaroscuro.Config{K: 2, Epsilon: 100, Iterations: 32, GossipRounds: 8, DecryptThreshold: 4},
		checkpointEvery: 4,
		setups:          2, minReps: 6,
	},
	{
		name: "mesh-dj",
		why:  "8 transport.Run nodes, Damgard-Jurik 1024-bit keyed by the DKG ceremony over the mesh, packed, 4 iterations, no checkpoints: ceremony + ciphertext codec + crypto under the epoch clock",
		kind: kindMesh, n: 8, dataset: "tumor", dim: 10,
		cfg: chiaroscuro.Config{K: 2, Epsilon: 100, Iterations: 4, GossipRounds: 8, DecryptThreshold: 4,
			Backend: chiaroscuro.BackendDamgardJurik, Degree: 1, Packed: true},
		modulusBits: 1024,
		setups:      2, minReps: 5,
	},
	{
		name: "stream-warm",
		why:  "N=1000 drifting blobs dim=8 slide=2 K=3, OpenStream + 6 Advance, warm start, lifetime epsilon 4000: the only path through RunSession, dp.Ledger and vecpool.SlideRow; repetitions cycle over 5 seeds",
		kind: kindStream, n: 1000, dataset: "blobs", dim: 8,
		cfg: chiaroscuro.Config{K: 3, Iterations: 10, ConvergeThreshold: 0.08, GossipRounds: 10, DecryptThreshold: 8,
			LifetimeEpsilon: 4000, Windows: 6, WarmStart: true, Engine: "sharded", Workers: workers},
		windows: 6, slide: 2,
		// Early stopping on 10 gossip rounds is a coin toss per participant:
		// a window takes 4 to 10 iterations depending on the seed, and about
		// one seed in eight sends a tenth more bytes.
		setups: 3, minReps: 5, seeds: 5,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// decryptThreshold caps the shape's threshold below the population, which
// only the toy sizes of the smoke tests ever need.
func (w workload) decryptThreshold() int {
	return min(w.cfg.DecryptThreshold, w.n-1)
}

// inputs is everything generated from the seed before the program runs:
// the series, the public initial centroids and the centralized baseline
// the quality ratio is taken against.
type inputs struct {
	w       workload
	seed    int64
	series  [][]float64   // cluster, mesh: the population; stream: window 0
	steps   [][][]float64 // stream: the samples each later window slides in
	initial [][]float64
	// baseline inertia per window (one entry for one-shot workloads),
	// from the same initial centroids and iteration budget.
	baseInertia []float64
	// windowData are the series of each stream window, for the quality
	// ratio only.
	windowData [][][]float64
}

// blobs is the drifting-blob stream of the CLI's -bench-stream mode (K
// well-separated levels with a slow sine drift, the regime where early
// stopping makes iteration counts comparable) with the seed choosing each
// participant's phase and jitter.
func blobs(n, total, k int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		base := 0.12 + 0.72*float64(i%k)/float64(k)
		phase := rng.Float64()
		s := make([]float64, total)
		for t := range s {
			v := base + 0.05*math.Sin(2*math.Pi*(float64(t)/float64(total)+phase)) +
				0.006*(rng.Float64()-0.5)
			s[t] = math.Min(1, math.Max(0, v))
		}
		out[i] = s
	}
	return out
}

// generate builds the workload's inputs from the seed. tr (may be nil)
// receives one span per step.
func (w workload) generate(seed int64, tr *tracer, parent int) (*inputs, error) {
	in := &inputs{w: w, seed: seed}
	total := w.dim
	if w.kind == kindStream {
		total = w.dim + (w.windows-1)*w.slide
	}
	sp := tr.begin("datasets:generate", parent)
	var full [][]float64
	var err error
	switch w.dataset {
	case "cer":
		full, _, _, err = chiaroscuro.SyntheticCERErr(w.n, total, seed)
	case "tumor":
		full, _, _, err = chiaroscuro.SyntheticTumorGrowthErr(w.n, total, seed)
	case "blobs":
		full = blobs(w.n, total, w.cfg.K, seed)
	default:
		err = fmt.Errorf("bench: unknown dataset %q", w.dataset)
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("timeseries:Normalize01", parent)
	_, _, err = chiaroscuro.Normalize01(full)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	in.initial = chiaroscuro.LevelInit(w.cfg.K, w.dim)

	if w.kind != kindStream {
		in.series = full
		in.windowData = [][][]float64{full}
	} else {
		in.series = make([][]float64, w.n)
		for i := range in.series {
			in.series[i] = append([]float64(nil), full[i][:w.dim]...)
		}
		in.steps = make([][][]float64, w.windows-1)
		for s := range in.steps {
			in.steps[s] = make([][]float64, w.n)
			for i := range in.steps[s] {
				in.steps[s][i] = full[i][w.dim+s*w.slide : w.dim+(s+1)*w.slide]
			}
		}
		in.windowData = make([][][]float64, w.windows)
		for win := range in.windowData {
			rows := make([][]float64, w.n)
			for i := range rows {
				rows[i] = full[i][win*w.slide : win*w.slide+w.dim]
			}
			in.windowData[win] = rows
		}
	}

	sp = tr.begin("kmeans:CentralizedKMeans", parent)
	defer tr.end(sp)
	for _, data := range in.windowData {
		base, err := chiaroscuro.CentralizedKMeans(data, w.cfg.K, w.cfg.Iterations, seed, in.initial)
		if err != nil {
			return nil, err
		}
		in.baseInertia = append(in.baseInertia, base.Inertia)
	}
	return in, nil
}

// config is the chiaroscuro.Config of a cluster or stream run.
func (in *inputs) config() chiaroscuro.Config {
	cfg := in.w.cfg
	cfg.Seed = in.seed
	cfg.InitialCentroids = in.initial
	cfg.DecryptThreshold = in.w.decryptThreshold()
	cfg.ModulusBits = in.w.modulusBits
	return cfg
}

// params is the core.Params of a mesh run (and of its sequential
// reference and node-driver replay).
func (in *inputs) params() core.Params {
	w := in.w
	p := core.Params{
		K:                w.cfg.K,
		Epsilon:          w.cfg.Epsilon,
		Iterations:       w.cfg.Iterations,
		GossipRounds:     w.cfg.GossipRounds,
		DecryptThreshold: w.decryptThreshold(),
		InitialCentroids: in.initial,
		Seed:             in.seed,
		Packed:           w.cfg.Packed,
		MaxValue:         1,
	}
	if w.cfg.Backend == chiaroscuro.BackendDamgardJurik {
		p.Backend = core.BackendDamgardJurik
		p.DKG = true
		p.ModulusBits = w.modulusBits
		p.Degree = w.cfg.Degree
	}
	return p
}

// outcome is one complete clustering as the benchmark saw it from
// outside: what it cost, what it disclosed, and how many participants did
// not get through.
type outcome struct {
	cost

	wireBytes   int64 // bytes sent, all participants
	iterations  int   // iterations disclosed (summed over windows)
	cycles      int   // engine cycles / mesh epochs (summed over windows)
	windows     []time.Duration
	windowIters []int
	epochMS     []float64 // mesh: one per node

	failed    int // participants that did not complete their schedule
	disclosed [][][]float64
	inertia   []float64 // per window, of the disclosed centroids on the window's data

	ops             chiaroscuro.CryptoOps
	decryptRequests int
	decryptWall     time.Duration

	mesh *meshResult // mesh runs only
}

// quality is the mean over windows of disclosed inertia ÷ baseline
// inertia.
func (o *outcome) quality(in *inputs) float64 {
	var sum float64
	for i, v := range o.inertia {
		if in.baseInertia[i] > 0 {
			sum += v / in.baseInertia[i]
		} else {
			sum++
		}
	}
	return sum / float64(len(o.inertia))
}

// absorb folds one Cluster or Advance result into the outcome and checks
// what every result must satisfy.
func (o *outcome) absorb(res *chiaroscuro.Result, n int) error {
	o.wireBytes += res.Network.BytesSent
	o.iterations += len(res.Trace)
	o.cycles += res.Network.Cycles
	o.windowIters = append(o.windowIters, len(res.Trace))
	o.disclosed = append(o.disclosed, res.Centroids)
	o.inertia = append(o.inertia, res.Inertia)
	o.ops.Encrypts += res.Crypto.Encrypts
	o.ops.Adds += res.Crypto.Adds
	o.ops.Halvings += res.Crypto.Halvings
	o.ops.PartialDecrypts += res.Crypto.PartialDecrypts
	o.ops.Combines += res.Crypto.Combines
	o.decryptRequests += res.Decrypt.Requests
	o.decryptWall += res.Decrypt.Wall
	if res.DecryptFailures > 0 {
		// A run that could not open a ciphertext failed every participant.
		o.failed += n
	} else {
		o.failed += n - res.Completed
	}
	if res.Privacy.EpsilonSpent > res.Privacy.EpsilonBudget*(1+1e-9) {
		return fmt.Errorf("spent epsilon %v exceeds the budget %v", res.Privacy.EpsilonSpent, res.Privacy.EpsilonBudget)
	}
	return nil
}

// runOnce performs one complete clustering of the workload. dir is
// scratch space on disk for the mesh; tr may be nil.
func (in *inputs) runOnce(dir string, tr *tracer, parent int) (*outcome, error) {
	o := &outcome{}
	var err error
	switch in.w.kind {
	case kindCluster:
		o.cost, err = measure(func() error {
			sp := tr.begin("chiaroscuro:Cluster", parent)
			res, err := chiaroscuro.Cluster(in.series, in.config())
			tr.end(sp)
			if err != nil {
				return err
			}
			return o.absorb(res, in.w.n)
		})
		o.windows = []time.Duration{o.wall}
	case kindStream:
		o.cost, err = measure(func() error { return in.runStream(o, tr, parent) })
	case kindMesh:
		o.cost, err = measure(func() error { return in.runMesh(o, dir, tr, parent) })
	}
	if err != nil {
		// An errored run failed every participant; the caller counts it.
		return nil, err
	}
	return o, nil
}

func (in *inputs) runStream(o *outcome, tr *tracer, parent int) error {
	sp := tr.begin("chiaroscuro:OpenStream", parent)
	sess, err := chiaroscuro.OpenStream(in.series, in.config())
	tr.end(sp)
	if err != nil {
		return err
	}
	defer sess.Close()
	for win := 0; win < in.w.windows; win++ {
		var pts [][]float64
		if win > 0 {
			pts = in.steps[win-1]
		}
		sp := tr.begin("chiaroscuro:Session.Advance", parent)
		t0 := time.Now()
		res, err := sess.Advance(pts)
		o.windows = append(o.windows, time.Since(t0))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("window %d: %w", win, err)
		}
		if res.Stream.Skipped {
			return fmt.Errorf("window %d was skipped: every window must disclose", win)
		}
		if err := o.absorb(res, in.w.n); err != nil {
			return fmt.Errorf("window %d: %w", win, err)
		}
	}
	b := sess.Budget()
	if b.SpentEpsilon > b.LifetimeEpsilon*(1+1e-9) || b.Windows != in.w.windows {
		return fmt.Errorf("ledger: spent %v of %v over %d windows, want %d windows within the budget",
			b.SpentEpsilon, b.LifetimeEpsilon, b.Windows, in.w.windows)
	}
	return nil
}

func (in *inputs) runMesh(o *outcome, dir string, tr *tracer, parent int) error {
	run, err := os.MkdirTemp(dir, "mesh-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(run)
	res, err := runMesh(run, in.series, in.params(), in.w.checkpointEvery, tr, parent)
	if err != nil {
		return err
	}
	o.mesh = res
	o.wireBytes = res.bytes
	o.cycles = res.epochs()
	o.epochMS = res.epochMS()
	o.windows = []time.Duration{res.wall}
	h := res.histories[0]
	if len(h) == 0 {
		return errors.New("mesh: node 0 disclosed nothing")
	}
	o.iterations = len(h)
	o.windowIters = []int{len(h)}
	final := h[len(h)-1].PerturbedCentroids
	o.disclosed = [][][]float64{final}
	o.inertia = []float64{kmeans.AssignAll(in.series, final, make([]int, len(in.series)))}
	var spent float64
	for _, it := range h {
		spent += it.Epsilon
	}
	if spent > in.w.cfg.Epsilon*(1+1e-9) {
		return fmt.Errorf("mesh: spent epsilon %v exceeds the budget %v", spent, in.w.cfg.Epsilon)
	}
	return nil
}

// reference is the sequential engine's view of a mesh workload: every
// participant's history, the op counts and the wall it took.
type reference struct {
	histories [][]core.IterationResult
	trace     *core.Trace
	wall      time.Duration
}

func (in *inputs) reference() (*reference, error) {
	t0 := time.Now()
	trace, hs, err := core.RunSequentialHistories(in.series, in.params())
	if err != nil {
		return nil, err
	}
	return &reference{histories: hs, trace: trace, wall: time.Since(t0)}, nil
}

// checkMesh counts the nodes whose history is not bit-identical to the
// sequential reference and completes the outcome with the reference's op
// counts (transport.Run returns histories only; the protocol is the same,
// so the counts are).
func (o *outcome) checkMesh(ref *reference) (failed int, first error) {
	for id, h := range o.mesh.histories {
		if err := conformance.EqualHistories(h, ref.histories[id]); err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("node %d differs from the sequential reference: %w", id, err)
			}
		}
	}
	t := ref.trace
	o.ops = chiaroscuro.CryptoOps{Encrypts: t.Ops.Encrypts, Adds: t.Ops.Adds, Halvings: t.Ops.Halvings,
		PartialDecrypts: t.Ops.PartialDecrypts, Combines: t.Ops.Combines}
	o.decryptRequests = t.DecryptRequests
	return failed, first
}

// sameDisclosure reports whether two runs disclosed Float64bits-identical
// centroids in every window.
func sameDisclosure(a, b [][][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for w := range a {
		if len(a[w]) != len(b[w]) {
			return false
		}
		for j := range a[w] {
			if len(a[w][j]) != len(b[w][j]) {
				return false
			}
			for t := range a[w][j] {
				if math.Float64bits(a[w][j][t]) != math.Float64bits(b[w][j][t]) {
					return false
				}
			}
		}
	}
	return true
}
