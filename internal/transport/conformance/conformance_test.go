package conformance

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/transport"
)

// daemonEnv re-execs this test binary as a chiaroscurod daemon: when
// the variable is set, TestMain diverts into transport.DaemonMain
// before the testing framework starts. Spawning daemons from the test
// binary itself (instead of `go build`-ing cmd/chiaroscurod first)
// keeps the daemons under the same -race instrumentation as the test.
const daemonEnv = "CHIAROSCURO_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		os.Exit(transport.DaemonMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func assertConformance(t *testing.T, spec Spec, got, want [][]core.IterationResult) {
	t.Helper()
	if len(got) != spec.N {
		t.Fatalf("mesh produced %d histories, want %d", len(got), spec.N)
	}
	for id := range got {
		if err := EqualHistories(got[id], want[id]); err != nil {
			t.Errorf("participant %d trajectory diverges from sequential reference: %v", id, err)
		}
	}
}

// TestLoopbackConformanceK5 is the headline check: five mesh members
// cluster over loopback TCP and every one of them must disclose the
// bit-identical trajectory the sequential engine computes at the same
// seed. Under -short the mesh runs in-process (goroutine per node,
// real listeners); otherwise each member is a separate re-execed
// daemon process. CHIAROSCURO_LOG_DIR, when set, receives the daemon
// logs (the CI failure artifact).
func TestLoopbackConformanceK5(t *testing.T) {
	spec := Spec{
		N:            5,
		Dataset:      "cer",
		Seed:         77,
		K:            3,
		Iterations:   2,
		EpochTimeout: 60 * time.Second,
	}
	want, err := spec.Reference()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if len(want) != spec.N {
		t.Fatalf("reference produced %d histories, want %d", len(want), spec.N)
	}
	for i, h := range want {
		if len(h) == 0 {
			t.Fatalf("reference participant %d disclosed no iterations", i)
		}
	}

	if testing.Short() {
		got, err := RunInProcess(spec, t.TempDir(), nil)
		if err != nil {
			t.Fatalf("in-process mesh: %v", err)
		}
		assertConformance(t, spec, got, want)
		return
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("locating test binary: %v", err)
	}
	logDir := os.Getenv("CHIAROSCURO_LOG_DIR")
	if logDir == "" {
		logDir = t.TempDir()
	}
	got, err := RunProcesses(spec, exe, []string{daemonEnv + "=1"}, t.TempDir(), logDir)
	if err != nil {
		t.Fatalf("multi-process mesh: %v", err)
	}
	assertConformance(t, spec, got, want)
}

// TestLoopbackConformanceDJK5 is the threshold-crypto counterpart of
// the headline check: five mesh members form the mesh KEYLESS, run the
// distributed key ceremony over loopback TCP — each process ends up
// holding only its own Damgård–Jurik key share — and then cluster under
// homomorphic encryption. Every disclosed trajectory must still be
// bit-identical to the sequential reference (whose ceremony runs
// in-process): decryptions are exact, so neither the key's provenance
// nor the ceremony's coefficient entropy may reach the plaintexts.
func TestLoopbackConformanceDJK5(t *testing.T) {
	spec := Spec{
		N:            5,
		Dataset:      "cer",
		Seed:         47,
		K:            2,
		Iterations:   2,
		EpochTimeout: 120 * time.Second,
		Backend:      "dj",
		ModulusBits:  128,
	}
	want, err := spec.Reference()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if len(want) != spec.N {
		t.Fatalf("reference produced %d histories, want %d", len(want), spec.N)
	}

	if testing.Short() {
		got, err := RunInProcess(spec, t.TempDir(), nil)
		if err != nil {
			t.Fatalf("in-process mesh: %v", err)
		}
		assertConformance(t, spec, got, want)
		return
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("locating test binary: %v", err)
	}
	logDir := os.Getenv("CHIAROSCURO_LOG_DIR")
	if logDir == "" {
		logDir = t.TempDir()
	}
	got, err := RunProcesses(spec, exe, []string{daemonEnv + "=1"}, t.TempDir(), logDir)
	if err != nil {
		t.Fatalf("multi-process mesh: %v", err)
	}
	assertConformance(t, spec, got, want)
}

// stateDir returns the run's scratch directory: CHIAROSCURO_STATE_DIR
// when set (the CI failure artifact — checkpoints, rendezvous files and
// history files survive the test), a TempDir otherwise.
func stateDir(t *testing.T) string {
	if dir := os.Getenv("CHIAROSCURO_STATE_DIR"); dir != "" {
		sub := filepath.Join(dir, t.Name())
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		return sub
	}
	return t.TempDir()
}

// requireChaosBit fails unless the run's log lines show that the chaos
// scenario actually happened: at least one injected reset in the plans'
// tallies, and at least one link that came back through the resume
// handshake. Bit-identical histories prove nothing about supervision if
// no connection ever broke.
func requireChaosBit(t *testing.T, log string) {
	t.Helper()
	resets, resumed := 0, 0
	for _, line := range strings.Split(log, "\n") {
		if _, tally, ok := strings.Cut(line, "chaos injected: "); ok {
			var n int
			if _, err := fmt.Sscanf(tally, "%d resets", &n); err != nil {
				t.Fatalf("unreadable chaos tally %q: %v", line, err)
			}
			resets += n
		}
		if strings.Contains(line, "resumed (acked seq") {
			resumed++
		}
	}
	if resets == 0 || resumed == 0 {
		t.Fatalf("the scenario did not bite: %d resets injected, %d links resumed", resets, resumed)
	}
	t.Logf("chaos: %d resets injected, %d link resumes logged", resets, resumed)
}

// TestLoopbackConformanceChaosK5 runs the five-member mesh with
// deterministic network faults injected under every daemon's sockets —
// connection resets mid-run, partial writes on every frame, read and
// write stalls — and still demands bit-identical trajectories. The
// supervision layer (sequence numbers, retransmit rings, backoff
// redial, resume handshake) must absorb every fault: chaos may cost
// wall-clock, never a single disclosed bit.
//
// The thresholds count socket operations, and a link makes one write
// per epoch (its batch) and about as many reads, over a run of some 33
// epochs: reset@8 lands in a connection's writes 8–15, the stalls at
// 10–19 and 12–23, so every directive is reached on every connection
// long before the run ends (they were 25/30/35 when a link wrote twice
// per frame). requireChaosBit holds the test to it.
func TestLoopbackConformanceChaosK5(t *testing.T) {
	spec := Spec{
		N:            5,
		Dataset:      "cer",
		Seed:         31,
		K:            3,
		Iterations:   2,
		EpochTimeout: 60 * time.Second,
		Grace:        30 * time.Second,
		Chaos:        "reset@8:2,partial,stall@10:50ms,rstall@12:50ms",
		ChaosSeed:    1601,
	}
	want, err := spec.Reference()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	if testing.Short() {
		var mu sync.Mutex
		var log strings.Builder
		got, err := RunInProcess(spec, t.TempDir(), func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(&log, format+"\n", args...)
		})
		if err != nil {
			t.Fatalf("in-process chaos mesh: %v", err)
		}
		assertConformance(t, spec, got, want)
		requireChaosBit(t, log.String())
		return
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("locating test binary: %v", err)
	}
	logDir := os.Getenv("CHIAROSCURO_LOG_DIR")
	if logDir == "" {
		logDir = t.TempDir()
	}
	got, err := RunProcesses(spec, exe, []string{daemonEnv + "=1"}, stateDir(t), logDir)
	if err != nil {
		t.Fatalf("multi-process chaos mesh: %v", err)
	}
	assertConformance(t, spec, got, want)
	var log strings.Builder
	for id := 0; id < spec.N; id++ {
		b, err := os.ReadFile(filepath.Join(logDir, fmt.Sprintf("daemon-%d.log", id)))
		if err != nil {
			t.Fatal(err)
		}
		log.Write(b)
	}
	requireChaosBit(t, log.String())
}

// TestLoopbackConformanceKillRestartK5 is the crash-recovery headline
// check: five daemon processes checkpoint every epoch; one of them is
// SIGKILLed once it has logged its second checkpoint — after, and often
// during, an in-place slot overwrite — (in-flight frames and kernel
// socket buffers destroyed with it) and restarted with -resume.
// The survivors park on their grace windows, the resume handshake
// replays what the crash lost, and every disclosed history — including
// the restarted daemon's — must be bit-identical (Float64bits) to the
// sequential reference.
func TestLoopbackConformanceKillRestartK5(t *testing.T) {
	if testing.Short() {
		t.Skip("kill-restart requires process isolation")
	}
	spec := Spec{
		N:               5,
		Dataset:         "cer",
		Seed:            53,
		K:               3,
		Iterations:      2,
		EpochTimeout:    60 * time.Second,
		Grace:           60 * time.Second,
		CheckpointEvery: 1,
	}
	want, err := spec.Reference()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("locating test binary: %v", err)
	}
	logDir := os.Getenv("CHIAROSCURO_LOG_DIR")
	if logDir == "" {
		logDir = t.TempDir()
	}
	got, err := RunProcessesKillRestart(spec, exe, []string{daemonEnv + "=1"}, stateDir(t), logDir, 2)
	if err != nil {
		t.Fatalf("kill-restart mesh: %v", err)
	}
	assertConformance(t, spec, got, want)
}

// TestInProcessMeshResetAtGraceZero: every link is supervised whatever
// Grace says. A mesh at Grace 0 whose nodes each have one connection
// reset under them (netchaos reset@8) redials, resumes, and still
// discloses histories bit-identical to the sequential reference; the
// log must show the resets and the resumes.
func TestInProcessMeshResetAtGraceZero(t *testing.T) {
	spec := Spec{
		N:            4,
		Dataset:      "cer",
		Seed:         77,
		K:            2,
		Iterations:   2,
		EpochTimeout: 60 * time.Second,
		Chaos:        "reset@8",
		ChaosSeed:    4501,
	}
	want, err := spec.Reference()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	var mu sync.Mutex
	var log strings.Builder
	got, err := RunInProcess(spec, t.TempDir(), func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(&log, format+"\n", args...)
	})
	if err != nil {
		t.Fatalf("in-process mesh at Grace 0: %v", err)
	}
	assertConformance(t, spec, got, want)
	requireChaosBit(t, log.String())
}

// TestInProcessMeshMatchesReference exercises the in-process mesh even
// outside -short, at a different seed, population and dataset, so the
// plain `go test ./...` tier always covers the transport end to end.
func TestInProcessMeshMatchesReference(t *testing.T) {
	spec := Spec{
		N:            4,
		Dataset:      "tumor",
		Seed:         1234,
		K:            2,
		Iterations:   2,
		EpochTimeout: 60 * time.Second,
	}
	want, err := spec.Reference()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	got, err := RunInProcess(spec, t.TempDir(), nil)
	if err != nil {
		t.Fatalf("in-process mesh: %v", err)
	}
	assertConformance(t, spec, got, want)
}
