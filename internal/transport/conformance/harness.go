// Package conformance checks the networked daemon against the
// sequential reference engine: K daemon processes (or in-process mesh
// members under -short) run a small clustering over loopback TCP, and
// every participant's disclosed per-iteration history must be
// bit-identical — Float64bits equality, NaN-safe — to the history the
// sequential simulator produces for the same participant at the same
// seed. This is the determinism contract of the transport layer: the
// network moves the protocol without perturbing a single bit of it.
package conformance

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/transport"
	"chiaroscuro/internal/transport/netchaos"
)

// Spec pins one conformance scenario: every daemon and the reference
// run are built from exactly these values.
type Spec struct {
	N            int    // population (mesh size)
	Dataset      string // synthetic dataset name
	Seed         int64
	K            int
	Iterations   int
	EpochTimeout time.Duration
	Backend      string // "" or "plain" (accounted), or "dj" (threshold Damgård–Jurik)
	ModulusBits  int    // dj modulus size; 0 = backend default

	// Robustness knobs. Grace tolerates link outages; CheckpointEvery > 0
	// enables epoch checkpoints (shared directory, one file per daemon);
	// Chaos is a netchaos scenario injected under every daemon's sockets,
	// seeded per daemon from ChaosSeed so the processes don't fail in
	// lockstep. None of these may change a single disclosed bit.
	Grace           time.Duration
	CheckpointEvery int
	Chaos           string
	ChaosSeed       int64
}

// Params returns the run parameters every mesh member and the
// reference engine must share. The dj backend runs DKG-keyed: daemons
// hold the key ceremony over the mesh, while the sequential reference
// drives the identical ceremony in-process — decryptions are exact, so
// both key paths disclose the same bits.
func (s Spec) Params() core.Params {
	p := core.Params{
		K:          s.K,
		Epsilon:    1.0,
		Iterations: s.Iterations,
		Seed:       s.Seed,
		Backend:    core.BackendPlainAccounted,
	}
	if s.Backend == "dj" {
		p.Backend = core.BackendDamgardJurik
		p.DKG = true
		p.ModulusBits = s.ModulusBits
	}
	return p
}

// Data regenerates the population's series exactly as each daemon does.
func (s Spec) Data() ([][]float64, error) {
	return transport.SyntheticSeries(s.Dataset, s.N, s.Seed)
}

// Reference runs the sequential engine and returns every participant's
// history — the trajectories the mesh must reproduce.
func (s Spec) Reference() ([][]core.IterationResult, error) {
	data, err := s.Data()
	if err != nil {
		return nil, err
	}
	_, histories, err := core.RunSequentialHistories(data, s.Params())
	return histories, err
}

// DaemonArgs builds the chiaroscurod argument list for one mesh member,
// with addresses discovered through the shared rendezvous directory and
// the history written to outFile. ckptDir may be empty when the spec
// does not checkpoint.
func (s Spec) DaemonArgs(id int, addrDir, ckptDir, outFile string) []string {
	args := []string{
		"-id", fmt.Sprint(id),
		"-n", fmt.Sprint(s.N),
		"-addr-dir", addrDir,
		"-epoch-timeout", s.EpochTimeout.String(),
		"-dataset", s.Dataset,
		"-seed", fmt.Sprint(s.Seed),
		"-k", fmt.Sprint(s.K),
		"-iterations", fmt.Sprint(s.Iterations),
		"-out", outFile,
		"-v",
	}
	if s.Backend != "" {
		args = append(args, "-backend", s.Backend)
	}
	if s.ModulusBits != 0 {
		args = append(args, "-modulus-bits", fmt.Sprint(s.ModulusBits))
	}
	if s.Grace > 0 {
		args = append(args, "-grace", s.Grace.String())
	}
	if s.CheckpointEvery > 0 {
		args = append(args, "-checkpoint-dir", ckptDir, "-checkpoint-every", fmt.Sprint(s.CheckpointEvery))
	}
	if s.Chaos != "" {
		// Per-daemon seed: the same scenario must not trip every process
		// at the identical frame.
		args = append(args, "-chaos", s.Chaos, "-chaos-seed", fmt.Sprint(s.ChaosSeed+int64(id)))
	}
	return args
}

// RunInProcess runs the whole mesh inside the calling process: N
// goroutines, each a full transport node with its own TCP listener on
// loopback. Same wire traffic as the multi-process mode, minus the
// process isolation — the -short configuration. logf, when non-nil,
// receives every node's progress lines (the daemons' -v output, chaos
// tallies included) and must be safe for concurrent use.
func RunInProcess(s Spec, dir string, logf func(format string, args ...any)) ([][]core.IterationResult, error) {
	data, err := s.Data()
	if err != nil {
		return nil, err
	}
	ckptDir := ""
	if s.CheckpointEvery > 0 {
		ckptDir = filepath.Join(dir, "checkpoints")
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			return nil, err
		}
	}
	histories := make([][]core.IterationResult, s.N)
	errs := make([]error, s.N)
	var wg sync.WaitGroup
	for id := 0; id < s.N; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cfg := transport.Config{
				ID:              id,
				Population:      s.N,
				Listen:          "127.0.0.1:0",
				AddrDir:         dir,
				EpochTimeout:    s.EpochTimeout,
				Logf:            logf,
				Grace:           s.Grace,
				CheckpointDir:   ckptDir,
				CheckpointEvery: s.CheckpointEvery,
			}
			if s.Chaos != "" {
				// One chaos plan per node, mirroring the per-process
				// plans of the daemon mode (budgets are per node).
				c, err := netchaos.New(s.Chaos, s.ChaosSeed+int64(id))
				if err != nil {
					errs[id] = err
					return
				}
				cfg.Dialer = c.Dial
				cfg.Listener = c.Listen
				if logf != nil {
					defer func() { logf("node %d chaos injected: %s", id, c.Injected()) }()
				}
			}
			histories[id], errs[id] = transport.Run(cfg, data, s.Params())
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", id, err)
		}
	}
	return histories, nil
}

// RunProcesses runs the mesh as N separate daemon processes launched
// from the given executable (the re-execed test binary, or a built
// chiaroscurod), with per-daemon logs written under logDir. It returns
// every daemon's disclosed history.
func RunProcesses(s Spec, exe string, extraEnv []string, workDir, logDir string) ([][]core.IterationResult, error) {
	mesh, err := newProcessMesh(s, exe, extraEnv, workDir, logDir)
	if err != nil {
		return nil, err
	}
	for id := 0; id < s.N; id++ {
		if err := mesh.start(id, fmt.Sprintf("daemon-%d.log", id)); err != nil {
			return nil, err
		}
	}
	var firstErr error
	for id := range mesh.cmds {
		if err := mesh.wait(id); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return mesh.histories()
}

// processMesh owns one multi-process conformance run: daemon processes
// re-execed from the test binary, their logs, history files, and the
// shared rendezvous and checkpoint directories.
type processMesh struct {
	spec     Spec
	exe      string
	extraEnv []string
	logDir   string
	addrDir  string
	ckptDir  string
	outFiles []string
	cmds     []*exec.Cmd
	logs     []*os.File
	logNames []string
}

func newProcessMesh(s Spec, exe string, extraEnv []string, workDir, logDir string) (*processMesh, error) {
	m := &processMesh{
		spec:     s,
		exe:      exe,
		extraEnv: extraEnv,
		logDir:   logDir,
		addrDir:  filepath.Join(workDir, "rendezvous"),
		outFiles: make([]string, s.N),
		cmds:     make([]*exec.Cmd, s.N),
		logs:     make([]*os.File, s.N),
		logNames: make([]string, s.N),
	}
	dirs := []string{m.addrDir, logDir}
	if s.CheckpointEvery > 0 {
		m.ckptDir = filepath.Join(workDir, "checkpoints")
		dirs = append(dirs, m.ckptDir)
	}
	for _, d := range dirs {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	for id := 0; id < s.N; id++ {
		m.outFiles[id] = filepath.Join(workDir, fmt.Sprintf("history-%d.gob", id))
	}
	return m, nil
}

// start launches (or relaunches) daemon id, logging to logName.
func (m *processMesh) start(id int, logName string, extraArgs ...string) error {
	logFile, err := os.Create(filepath.Join(m.logDir, logName))
	if err != nil {
		return err
	}
	args := append(m.spec.DaemonArgs(id, m.addrDir, m.ckptDir, m.outFiles[id]), extraArgs...)
	cmd := exec.Command(m.exe, args...)
	cmd.Env = append(os.Environ(), m.extraEnv...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return fmt.Errorf("start daemon %d: %w", id, err)
	}
	m.cmds[id], m.logs[id], m.logNames[id] = cmd, logFile, logName
	return nil
}

// wait reaps daemon id's current process and closes its log.
func (m *processMesh) wait(id int) error {
	err := m.cmds[id].Wait()
	m.logs[id].Close()
	if err != nil {
		return fmt.Errorf("daemon %d: %w (see %s)", id, err, filepath.Join(m.logDir, m.logNames[id]))
	}
	return nil
}

func (m *processMesh) histories() ([][]core.IterationResult, error) {
	histories := make([][]core.IterationResult, m.spec.N)
	for id := range histories {
		h, err := transport.ReadHistory(m.outFiles[id])
		if err != nil {
			return nil, fmt.Errorf("daemon %d history: %w", id, err)
		}
		histories[id] = h
	}
	return histories, nil
}

// RunProcessesKillRestart runs the mesh as processes, SIGKILLs the
// victim daemon as soon as its -v log reports a second epoch checkpoint
// (no cleanup of any kind — kernel socket buffers and all in-flight
// frames are destroyed), restarts it with -resume, and returns every
// daemon's disclosed history. A run's first checkpoint lays out the
// checkpoint file and every later one overwrites a slot in place, so
// the kill lands after, and often during, an overwrite. The spec must
// enable checkpointing and a grace window generous enough to cover the
// restart.
func RunProcessesKillRestart(s Spec, exe string, extraEnv []string, workDir, logDir string, victim int) ([][]core.IterationResult, error) {
	if s.CheckpointEvery <= 0 {
		return nil, fmt.Errorf("kill-restart requires CheckpointEvery > 0")
	}
	if s.Grace <= 0 {
		return nil, fmt.Errorf("kill-restart requires a grace window")
	}
	mesh, err := newProcessMesh(s, exe, extraEnv, workDir, logDir)
	if err != nil {
		return nil, err
	}
	for id := 0; id < s.N; id++ {
		if err := mesh.start(id, fmt.Sprintf("daemon-%d.log", id)); err != nil {
			return nil, err
		}
	}

	// Kill the victim once its in-place overwrites have begun. The mesh
	// advances in lockstep, so the run cannot complete before the victim
	// (killed within its first epochs) is back.
	victimLog := filepath.Join(mesh.logDir, mesh.logNames[victim])
	deadline := time.Now().Add(s.EpochTimeout)
	for {
		if b, err := os.ReadFile(victimLog); err == nil && bytes.Count(b, []byte("checkpointed epoch")) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("victim %d logged no second checkpoint within %v", victim, s.EpochTimeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := mesh.cmds[victim].Process.Kill(); err != nil {
		return nil, fmt.Errorf("kill victim %d: %w", victim, err)
	}
	mesh.cmds[victim].Wait() // reap; a kill error is expected
	mesh.logs[victim].Close()

	if err := mesh.start(victim, fmt.Sprintf("daemon-%d-restart.log", victim), "-resume"); err != nil {
		return nil, err
	}
	var firstErr error
	for id := range mesh.cmds {
		if err := mesh.wait(id); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return mesh.histories()
}

// EqualHistories demands bit-identical disclosed trajectories: every
// field of every iteration, floats compared by their IEEE-754 bit
// patterns (so a NaN matches a NaN, and no epsilon hides a divergence).
func EqualHistories(got, want []core.IterationResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d iterations, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Iteration != w.Iteration {
			return fmt.Errorf("iter %d: Iteration %d != %d", i, g.Iteration, w.Iteration)
		}
		if math.Float64bits(g.Epsilon) != math.Float64bits(w.Epsilon) {
			return fmt.Errorf("iter %d: Epsilon bits differ", i)
		}
		if err := equalMatrix(g.PerturbedCentroids, w.PerturbedCentroids); err != nil {
			return fmt.Errorf("iter %d: PerturbedCentroids: %w", i, err)
		}
		if err := equalVector(g.PerturbedCounts, w.PerturbedCounts); err != nil {
			return fmt.Errorf("iter %d: PerturbedCounts: %w", i, err)
		}
		if math.Float64bits(g.PerturbedInertia) != math.Float64bits(w.PerturbedInertia) {
			return fmt.Errorf("iter %d: PerturbedInertia bits differ (%v vs %v)", i, g.PerturbedInertia, w.PerturbedInertia)
		}
		if g.Assignment != w.Assignment {
			return fmt.Errorf("iter %d: Assignment %d != %d", i, g.Assignment, w.Assignment)
		}
		if math.Float64bits(g.Displacement) != math.Float64bits(w.Displacement) {
			return fmt.Errorf("iter %d: Displacement bits differ (%v vs %v)", i, g.Displacement, w.Displacement)
		}
		if g.DecryptFailed != w.DecryptFailed {
			return fmt.Errorf("iter %d: DecryptFailed %t != %t", i, g.DecryptFailed, w.DecryptFailed)
		}
		if g.CompletedAtCycle != w.CompletedAtCycle {
			return fmt.Errorf("iter %d: CompletedAtCycle %d != %d", i, g.CompletedAtCycle, w.CompletedAtCycle)
		}
	}
	return nil
}

func equalVector(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("len %d != %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("[%d] bits differ: %v vs %v", i, got[i], want[i])
		}
	}
	return nil
}

func equalMatrix(got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("rows %d != %d", len(got), len(want))
	}
	for i := range want {
		if err := equalVector(got[i], want[i]); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}
