// Command chiaroscuro runs the full privacy-preserving clustering
// protocol on a chosen workload and prints the per-iteration log the
// demonstration GUI renders (centroid evolution, noise impact, quality
// and cost measures), plus a final comparison against centralized
// k-means.
//
// Examples:
//
//	go run ./cmd/chiaroscuro
//	go run ./cmd/chiaroscuro -dataset tumor -n 1000 -k 4 -epsilon 1
//	go run ./cmd/chiaroscuro -backend damgard-jurik -n 20 -modulus 256
//	go run ./cmd/chiaroscuro -churn 0.02 -strategy geo-increasing
//
// The -faults flag injects a deterministic fault scenario (simnet
// grammar; see docs/ARCHITECTURE.md "The simnet fault layer") into a
// normal run:
//
//	go run ./cmd/chiaroscuro -faults 'drop=0.1;outage@10+8=1,2:reset'
//
// Measurement lives elsewhere: `go run ./bench [-workload … -trace 1]`
// is the one benchmark (BENCHMARK.json, bench/README.md), and the
// experiment tables come from `go run ./cmd/expdriver -quick -exp
// E11|E13|E5a`.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"chiaroscuro"
)

func main() {
	var (
		dataset   = flag.String("dataset", "cer", "workload: cer | tumor")
		n         = flag.Int("n", 600, "number of participants (simulated devices)")
		k         = flag.Int("k", 5, "number of clusters")
		epsilon   = flag.Float64("epsilon", 1.0, "privacy budget ε at the target population")
		targetPop = flag.Int("target-pop", 1000000, "target deployment size ε refers to (demo scaling rule); 0 = use ε as-is")
		iters     = flag.Int("iterations", 6, "k-means iterations")
		rounds    = flag.Int("gossip-rounds", 0, "gossip exchanges per participant per aggregation (0 = auto)")
		threshold = flag.Int("threshold", 0, "partial decryptions needed (0 = auto)")
		strategy  = flag.String("strategy", "uniform", "budget strategy: uniform | geo-increasing | geo-decreasing | final-boost")
		smoothing = flag.String("smoothing", "moving-average", "perturbed-mean smoothing: none | moving-average | exponential")
		backend   = flag.String("backend", "accounted", "cipher backend: accounted | damgard-jurik")
		engine    = flag.String("engine", "cycles", "execution engine: cycles | sharded (sharded is bit-identical to cycles, parallelized)")
		workers   = flag.Int("workers", 0, "shard workers for -engine sharded (0 = GOMAXPROCS)")
		modulus   = flag.Int("modulus", 0, "key size in bits (0 = default)")
		seed      = flag.Int64("seed", 2016, "random seed (whole run is deterministic)")
		churn     = flag.Float64("churn", 0, "per-cycle crash probability")
		faults    = flag.String("faults", "", "deterministic fault scenario, e.g. 'drop=0.05;delay=0.2x3;outage@10+8=1,2:reset;garble=7' (see docs/ARCHITECTURE.md)")
		quiet     = flag.Bool("quiet", false, "suppress the per-iteration log")

		stream          = flag.Bool("stream", false, "streaming mode: cluster a sliding window of the workload repeatedly, drawing each window's ε from -lifetime-epsilon")
		windows         = flag.Int("windows", 8, "with -stream: number of windows to run (also the budget strategy's planning horizon)")
		windowSlide     = flag.Int("window-slide", 4, "with -stream: samples appended (and evicted) per window advance")
		warmStart       = flag.Bool("warm-start", false, "with -stream: seed each window's centroids from the previous window's disclosure")
		lifetimeEpsilon = flag.Float64("lifetime-epsilon", 8, "with -stream: longitudinal privacy budget across all windows")
		budgetStrategy  = flag.String("budget-strategy", "uniform", "with -stream: per-window ε spend policy: uniform | decaying | threshold")
		driftThreshold  = flag.Float64("drift-threshold", 0, "with -stream and -budget-strategy threshold: re-cluster only when centroid drift exceeds this (0 = default 0.05)")
		converge        = flag.Float64("converge", 0, "early-stop threshold on centroid displacement (0 = disabled)")
	)
	flag.Parse()

	if *stream {
		err := runStream(streamOptions{
			dataset:          *dataset,
			n:                *n,
			k:                *k,
			lifetimeEpsilon:  *lifetimeEpsilon,
			windows:          *windows,
			slide:            *windowSlide,
			warmStart:        *warmStart,
			budgetStrategy:   *budgetStrategy,
			driftThreshold:   *driftThreshold,
			iterations:       *iters,
			converge:         *converge,
			gossipRounds:     *rounds,
			decryptThreshold: *threshold,
			engine:           *engine,
			workers:          *workers,
			seed:             *seed,
			quiet:            *quiet,
		})
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	series, _, archetypes, err := load(*dataset, *n, *seed)
	if err != nil {
		log.Fatal(err)
	}
	if _, _, err := chiaroscuro.Normalize01(series); err != nil {
		log.Fatal(err)
	}
	dim := len(series[0])

	eps := *epsilon
	if *targetPop > 0 {
		eps, err = chiaroscuro.ScaleEpsilonForPopulation(*epsilon, *targetPop, *n)
		if err != nil {
			log.Fatal(err)
		}
	}

	init := chiaroscuro.LevelInit(*k, dim)
	cfg := chiaroscuro.Config{
		Faults:           *faults,
		K:                *k,
		Epsilon:          eps,
		Iterations:       *iters,
		GossipRounds:     *rounds,
		DecryptThreshold: *threshold,
		Backend:          chiaroscuro.Backend(*backend),
		Engine:           *engine,
		Workers:          *workers,
		ModulusBits:      *modulus,
		Strategy:         *strategy,
		Smoothing:        chiaroscuro.Smoothing{Method: *smoothing},
		InitialCentroids: init,
		Seed:             *seed,
		ChurnCrashProb:   *churn,
	}
	if *churn > 0 {
		cfg.ChurnRejoinProb = 0.3
	}

	fmt.Printf("chiaroscuro: %s workload, %d participants, k=%d, ε=%.4g", *dataset, *n, *k, eps)
	if *targetPop > 0 {
		fmt.Printf(" (ε=%.2g at %d devices)", *epsilon, *targetPop)
	}
	fmt.Printf(", backend=%s, engine=%s", *backend, *engine)
	fmt.Println()
	fmt.Printf("archetypes in the generator: %v\n\n", archetypes)

	res, err := chiaroscuro.Cluster(series, cfg)
	if err != nil {
		log.Fatal(err)
	}

	if !*quiet {
		fmt.Println("iter   ε_i      noise RMSE   cluster sizes (perturbed, relative)")
		for _, it := range res.Trace {
			fmt.Printf("%4d   %-8.4g %-12.4f %v\n", it.Index+1, it.Epsilon, it.NoiseRMSE, compact(it.Counts))
		}
		fmt.Println()
	}

	base, err := chiaroscuro.CentralizedKMeans(series, *k, 40, *seed, init)
	if err != nil {
		log.Fatal(err)
	}
	ratio, rmse, ari, err := chiaroscuro.CompareToBaseline(res, base)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("quality:  inertia %.3f (centralized %.3f, ratio %.3f)   centroid RMSE %.4f   ARI %.3f\n",
		res.Inertia, base.Inertia, ratio, rmse, ari)
	fmt.Printf("privacy:  ε spent %.4g over %d disclosures   gossip distortion %.2e\n",
		res.Privacy.EpsilonSpent, res.Privacy.Disclosures, res.Privacy.GossipRelErr)
	fmt.Printf("network:  %d messages (%.1f MB), %d dropped, %d cycles\n",
		res.Network.MessagesSent, float64(res.Network.BytesSent)/1e6,
		res.Network.MessagesDropped, res.Network.Cycles)
	if *faults != "" {
		fmt.Printf("faults:   %d dropped, %d duplicated, %d delayed by scenario; %d/%d participants completed\n",
			res.Network.FaultDropped, res.Network.Duplicated, res.Network.Delayed,
			res.Completed, *n)
	}
	fmt.Printf("crypto:   %d enc, %d add, %d refresh, %d double, %d partial-dec, %d combine (%s)\n",
		res.Crypto.Encrypts, res.Crypto.Adds, res.Crypto.Refreshes, res.Crypto.Doublings,
		res.Crypto.PartialDecrypts, res.Crypto.Combines, *backend)
	if res.DecryptFailures > 0 {
		fmt.Printf("warning:  %d decryption quorum failures (degraded iterations)\n", res.DecryptFailures)
	}
	if res.ConvergedAtIteration >= 0 {
		fmt.Printf("converged after iteration %d\n", res.ConvergedAtIteration+1)
	}
	fmt.Printf("elapsed:  %s\n", res.Elapsed.Round(1e6))
	os.Exit(0)
}

func load(name string, n int, seed int64) ([][]float64, []int, []string, error) {
	switch name {
	case "cer":
		return chiaroscuro.SyntheticCERErr(n, 24, seed)
	case "tumor":
		return chiaroscuro.SyntheticTumorGrowthErr(n, 20, seed)
	default:
		return nil, nil, nil, fmt.Errorf("unknown dataset %q (want cer or tumor)", name)
	}
}

func compact(counts []float64) []string {
	out := make([]string, len(counts))
	for i, c := range counts {
		out[i] = fmt.Sprintf("%.3f", c)
	}
	return out
}
