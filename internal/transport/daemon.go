package transport

import (
	"bytes"
	"encoding/gob"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/datasets"
	"chiaroscuro/internal/transport/netchaos"
)

// DaemonMain is the chiaroscurod entry point, factored out of cmd/ so
// the conformance harness can run daemons as re-execs of its own test
// binary (keeping race instrumentation) while cmd/chiaroscurod stays a
// two-line wrapper. It returns the process exit code.
//
// Every daemon of one run must be launched with identical protocol
// flags (-seed, -k, -iters, ...): each process deterministically
// regenerates the whole population's synthetic series from the seed and
// clusters as the participant selected by -id. The mesh handshake
// rejects peers whose configuration fingerprint disagrees.
func DaemonMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chiaroscurod", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		id      = fs.Int("id", -1, "participant id in [0, n)")
		n       = fs.Int("n", 0, "population size (number of participants)")
		listen  = fs.String("listen", "127.0.0.1:0", "TCP listen address")
		peers   = fs.String("peers", "", "comma-separated dial address per node, indexed by id")
		addrDir = fs.String("addr-dir", "", "shared rendezvous directory for address discovery")
		timeout = fs.Duration("epoch-timeout", 30*time.Second, "max wait at one epoch barrier")

		dataset = fs.String("dataset", "cer", "synthetic dataset: cer or tumor")
		seed    = fs.Int64("seed", 1, "run seed (data generation and protocol)")
		k       = fs.Int("k", 3, "number of clusters")
		eps     = fs.Float64("epsilon", 1.0, "differential-privacy budget")
		iters   = fs.Int("iterations", 3, "k-means iterations")
		rounds  = fs.Int("gossip-rounds", 0, "gossip rounds per aggregation (0 = default)")
		window  = fs.Int("decrypt-window", 0, "decryption window in cycles (0 = default)")
		thresh  = fs.Int("decrypt-threshold", 0, "partial decryptions to open (0 = default)")

		backend = fs.String("backend", "plain", "cipher backend: plain (accounted) or dj (threshold Damgård–Jurik, keyed by the distributed ceremony)")
		modBits = fs.Int("modulus-bits", 0, "dj modulus size in bits (0 = default)")
		degree  = fs.Int("degree", 0, "dj generalization degree s (0 = default)")

		grace     = fs.Duration("grace", 0, "how much longer than -epoch-timeout a barrier waits for a peer whose link is down (links are always redialed and resumed)")
		ckptDir   = fs.String("checkpoint-dir", "", "write epoch checkpoints to this directory")
		ckptEvery = fs.Int("checkpoint-every", 0, "epochs between checkpoints (0 = every epoch when -checkpoint-dir is set)")
		resume    = fs.Bool("resume", false, "restore state from the checkpoint in -checkpoint-dir and rejoin the mesh")
		chaos     = fs.String("chaos", "", "deterministic fault-injection scenario (see internal/transport/netchaos)")
		chaosSeed = fs.Int64("chaos-seed", 0, "seed for the chaos scenario's deterministic schedule")

		out     = fs.String("out", "", "write the disclosed history (gob) to this file")
		verbose = fs.Bool("v", false, "log epoch progress to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := Config{
		ID:              *id,
		Population:      *n,
		Listen:          *listen,
		AddrDir:         *addrDir,
		EpochTimeout:    *timeout,
		Grace:           *grace,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		Resume:          *resume,
	}
	if *peers != "" {
		cfg.Peers = splitPeers(*peers)
	}
	if *verbose {
		cfg.Logf = func(format string, a ...any) {
			fmt.Fprintf(stderr, "chiaroscurod: "+format+"\n", a...)
		}
	}
	if *chaos != "" {
		net, err := netchaos.New(*chaos, *chaosSeed)
		if err != nil {
			fmt.Fprintf(stderr, "chiaroscurod: %v\n", err)
			return 2
		}
		cfg.Dialer = net.Dial
		cfg.Listener = net.Listen
		// What the plan did to this process, however the run ends: a
		// chaos run that injected nothing tested nothing.
		defer func() { cfg.logf("node %d chaos injected: %s", cfg.ID, net.Injected()) }()
	}

	// A first SIGTERM/SIGINT requests a graceful shutdown (final
	// checkpoint, bye to peers, exit 3); a second one kills the process
	// the default way.
	interrupt := make(chan struct{})
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		<-sigCh
		close(interrupt)
		<-sigCh
		signal.Reset(syscall.SIGTERM, syscall.SIGINT)
		syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
	}()
	cfg.Interrupt = interrupt

	data, err := SyntheticSeries(*dataset, *n, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "chiaroscurod: %v\n", err)
		return 1
	}
	params := core.Params{
		K:                *k,
		Epsilon:          *eps,
		Iterations:       *iters,
		GossipRounds:     *rounds,
		DecryptWindow:    *window,
		DecryptThreshold: *thresh,
		Seed:             *seed,
		ModulusBits:      *modBits,
		Degree:           *degree,
	}
	switch *backend {
	case "plain":
		params.Backend = core.BackendPlainAccounted
	case "dj":
		// The mesh forms keyless and runs the distributed key ceremony
		// before epoch 0; this process will hold only its own share.
		params.Backend = core.BackendDamgardJurik
		params.DKG = true
	default:
		fmt.Fprintf(stderr, "chiaroscurod: unknown backend %q (want plain or dj)\n", *backend)
		return 2
	}

	history, err := Run(cfg, data, params)
	if errors.Is(err, ErrInterrupted) {
		// Distinct exit code: the run was interrupted but its state was
		// checkpointed (when configured); a -resume restart continues it.
		fmt.Fprintf(stderr, "chiaroscurod: %v\n", err)
		return 3
	}
	if err != nil {
		fmt.Fprintf(stderr, "chiaroscurod: %v\n", err)
		return 1
	}

	if *out != "" {
		if err := WriteHistory(*out, history); err != nil {
			fmt.Fprintf(stderr, "chiaroscurod: %v\n", err)
			return 1
		}
	}
	for _, it := range history {
		fmt.Fprintf(stdout, "iteration %d: eps=%.4f displacement=%.6f cycle=%d\n",
			it.Iteration, it.Epsilon, it.Displacement, it.CompletedAtCycle)
	}
	return 0
}

// splitPeers splits a comma-separated address list, preserving empty
// entries (the slot at the node's own id may be blank).
func splitPeers(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}

// SyntheticSeries regenerates the run's population data: the named
// synthetic dataset at its default resolution, normalized to [0,1].
// Deterministic in (name, n, seed), which is what lets every daemon
// process hold the full population's series without any distribution
// step — and what the conformance harness uses to build the sequential
// reference run.
func SyntheticSeries(name string, n int, seed int64) ([][]float64, error) {
	d, err := datasets.ByName(name, n, seed)
	if err != nil {
		return nil, err
	}
	d.NormalizeTo01()
	return d.Series, nil
}

// WriteHistory gob-encodes a participant's disclosed history. Gob
// rather than JSON because PerturbedInertia is NaN when inertia
// tracking is off, and the comparison consumer needs the exact bits
// anyway. The file is written atomically (temp + fsync + rename +
// directory fsync), so a daemon killed mid-write leaves either no
// history file or a complete one — never a torn file that gob would
// misparse.
func WriteHistory(path string, history []core.IterationResult) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(history); err != nil {
		return fmt.Errorf("transport: encode history: %w", err)
	}
	return writeFileAtomic(path, buf.Bytes(), int64(buf.Len()))
}

// ReadHistory reads a history file written by WriteHistory.
func ReadHistory(path string) ([]core.IterationResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var history []core.IterationResult
	if err := gob.NewDecoder(f).Decode(&history); err != nil {
		return nil, fmt.Errorf("transport: decode history: %w", err)
	}
	return history, nil
}
