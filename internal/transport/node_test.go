package transport

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chiaroscuro/internal/core"
)

func gobHistory(t *testing.T, h []core.IterationResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(h); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRendezvousIgnoresStaleEntries: address files left behind by an
// earlier run (malformed, or well-formed under a different
// configuration fingerprint) must be ignored and overwritten, not
// dialed — the mesh still forms.
func TestRendezvousIgnoresStaleEntries(t *testing.T) {
	dir := t.TempDir()
	// A malformed leftover and a well-formed entry from a different run
	// pointing at a dead port.
	if err := os.WriteFile(filepath.Join(dir, "0.addr"), []byte("not a rendezvous entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "1.addr"), []byte(fmt.Sprintf("%016x %s", uint64(0xDEAD), "127.0.0.1:1")), 0o644); err != nil {
		t.Fatal(err)
	}

	const n = 2
	data, err := SyntheticSeries("cer", n, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := core.Params{K: 2, Epsilon: 1.0, Iterations: 1, Seed: 3, Backend: core.BackendPlainAccounted}
	_, want, err := core.RunSequentialHistories(data, params)
	if err != nil {
		t.Fatal(err)
	}

	histories := make([][]core.IterationResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cfg := Config{
				ID:           id,
				Population:   n,
				Listen:       "127.0.0.1:0",
				AddrDir:      dir,
				EpochTimeout: 30 * time.Second,
			}
			histories[id], errs[id] = Run(cfg, data, params)
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
	}
	for id := range histories {
		if !bytes.Equal(gobHistory(t, histories[id]), gobHistory(t, want[id])) {
			t.Errorf("node %d history diverges from sequential reference", id)
		}
	}
}

// TestMismatchedJoinRejectedAtOnce: a dialer built from another run
// configuration joins with a resume whose fingerprint does not match.
// The acceptor's reject reaches it with the reason, failing its
// formation at once rather than at the end of its formation deadline;
// the acceptor refuses it and keeps forming, so the right peer, dialing
// next, still completes the run.
func TestMismatchedJoinRejectedAtOnce(t *testing.T) {
	const n = 2
	data, err := SyntheticSeries("cer", n, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := core.Params{K: 2, Epsilon: 1.0, Iterations: 1, Seed: 3, Backend: core.BackendPlainAccounted}
	_, want, err := core.RunSequentialHistories(data, params)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 30 * time.Second
	cfg := func(id int) Config {
		return Config{ID: id, Population: n, Listen: "127.0.0.1:0", Peers: []string{ln.Addr().String(), "unused"}, EpochTimeout: timeout}
	}

	var acceptor []core.IterationResult
	acceptorErr := make(chan error, 1)
	go func() {
		c := cfg(0)
		c.Listener = func(string, string) (net.Listener, error) { return ln, nil }
		var err error
		acceptor, err = Run(c, data, params)
		acceptorErr <- err
	}()

	stray := params
	stray.Seed = 4
	start := time.Now()
	_, err = Run(cfg(1), data, stray)
	const reason = "transport: peer 0 rejected the link: run configuration fingerprint mismatch"
	if err == nil || err.Error() != reason {
		t.Fatalf("stray dialer: %v, want %q", err, reason)
	}
	if took := time.Since(start); took > timeout/10 {
		t.Fatalf("the reject took %v to reach the dialer, within an epoch timeout of %v", took, timeout)
	}

	got, err := Run(cfg(1), data, params)
	if err != nil {
		t.Fatalf("right peer after the stray one: %v", err)
	}
	if err := <-acceptorErr; err != nil {
		t.Fatalf("acceptor: %v", err)
	}
	for id, h := range [][]core.IterationResult{acceptor, got} {
		if !bytes.Equal(gobHistory(t, h), gobHistory(t, want[id])) {
			t.Errorf("node %d history diverges from sequential reference", id)
		}
	}
}

// TestCheckpointFailureFailsTheRun: a checkpoint that cannot be written
// is a loud refusal at the first checkpoint, not a run that carries on
// without the durability it was asked for. The checkpoint "directory"
// is a regular file — ENOTDIR, which unlike a permission bit also stops
// root.
func TestCheckpointFailureFailsTheRun(t *testing.T) {
	const n = 2
	data, err := SyntheticSeries("cer", n, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := core.Params{K: 2, Epsilon: 1.0, Iterations: 1, Seed: 3, Backend: core.BackendPlainAccounted}
	notADir := filepath.Join(t.TempDir(), "checkpoints")
	if err := os.WriteFile(notADir, []byte("a file where the directory should be"), 0o644); err != nil {
		t.Fatal(err)
	}
	addrDir := t.TempDir()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			_, errs[id] = Run(Config{
				ID:              id,
				Population:      n,
				Listen:          "127.0.0.1:0",
				AddrDir:         addrDir,
				EpochTimeout:    30 * time.Second,
				CheckpointDir:   notADir,
				CheckpointEvery: 1,
			}, data, params)
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err == nil || !strings.HasPrefix(err.Error(), "transport: checkpoint:") {
			t.Errorf("node %d: %v, want an error that starts \"transport: checkpoint:\"", id, err)
		}
	}
}

// TestWriteHistoryAtomic is the torn-write regression test: WriteHistory
// must replace a garbage target wholesale, leave no temp residue, and
// produce a file ReadHistory round-trips exactly.
func TestWriteHistoryAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "history.gob")
	// A torn file from a previous crashed writer at the target path.
	if err := os.WriteFile(path, []byte("\x13\xff\x81torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	history := []core.IterationResult{
		{Iteration: 0, Epsilon: 0.5, PerturbedInertia: 1.25, Assignment: 1, CompletedAtCycle: 7},
		{Iteration: 1, Epsilon: 0.25, Assignment: 0, CompletedAtCycle: 19},
	}
	if err := WriteHistory(path, history); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHistory(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(gobHistory(t, got), gobHistory(t, history)) {
		t.Fatal("history did not round-trip")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want just the history file", len(entries))
	}
}

// TestInterruptResumeInProcess drives the graceful interrupt/resume
// cycle without process machinery: a three-node mesh where one node is
// interrupted, checkpoints, says bye, and is then restarted with
// Resume. The survivors ride out the outage on their grace windows, the
// resume handshake has them retransmit what the victim's checkpoint had
// not consumed, and every disclosed history — including the victim's —
// must be bit-identical to the sequential reference.
//
// In the "final slot" row the victim is interrupted the moment the mesh
// forms (its Interrupt channel is already closed) and resumes from the
// checkpoint its shutdown wrote, stepping epoch 0 without a barrier. In
// the "torn final slot" row it checkpoints every second epoch and is
// interrupted by its first socket write after the first checkpoint, so
// the shutdown checkpoint holds a later state than the slot before it;
// the test then tears the shutdown checkpoint's slot — the file a crash
// during that final write leaves — and the victim resumes from the
// older slot, re-stepping epochs whose frames the survivors already
// hold.
func TestInterruptResumeInProcess(t *testing.T) {
	plain := newTrio(t, core.Params{K: 2, Epsilon: 1.0, Iterations: 2, Seed: 5, Backend: core.BackendPlainAccounted})
	t.Run("final slot", func(t *testing.T) {
		plain.interruptResume(t, interruptCase{every: 1})
	})
	t.Run("torn final slot", func(t *testing.T) {
		plain.interruptResume(t, interruptCase{every: 2, tear: true,
			fire: func(_ int, checkpointed bool) bool { return checkpointed }})
	})
}

// TestInterruptResumeAtEveryWrite interrupts the victim of
// TestInterruptResumeInProcess at each of its socket writes in turn —
// link handshakes, key-ceremony frames, every epoch's batch — and
// resumes it from the checkpoint its shutdown wrote. Whatever the
// interrupt finds (a node before its first step, one parked at a
// barrier, one about to step), the checkpoint has one shape, and every
// resumed run must disclose the sequential reference's bits. The
// Damgård–Jurik row runs the key ceremony over the mesh, so its early
// writes checkpoint a node whose links have consumed only ceremony
// frames.
//
// The sweep stops before the victim's final ticks: once those are
// written the survivors see the whole population done and leave, and a
// resumed victim finds no mesh to re-form.
func TestInterruptResumeAtEveryWrite(t *testing.T) {
	plain := core.Params{K: 2, Epsilon: 1.0, Iterations: 2, Seed: 5, Backend: core.BackendPlainAccounted}
	// One iteration covers the ceremony and every epoch shape, and keeps
	// the row, whose randomizer pools mint in the background of every
	// node, near the plain rows' length.
	dj := plain
	dj.Backend, dj.DKG, dj.ModulusBits, dj.Iterations = core.BackendDamgardJurik, true, 128, 1
	for _, row := range []struct {
		name   string
		params core.Params
		every  int
	}{
		{"plain every 1", plain, 1},
		{"plain every 2", plain, 2},
		{"dj128 every 1", dj, 1},
	} {
		t.Run(row.name, func(t *testing.T) {
			tr := newTrio(t, row.params)
			final := tr.victimWritesBeforeFinalTicks(t)
			for at := 1; at <= final; at++ {
				t.Run(fmt.Sprint("write ", at), func(t *testing.T) {
					tr.interruptResume(t, interruptCase{every: row.every,
						fire: func(w int, _ bool) bool { return w == at }})
				})
			}
		})
	}
}

// The victim of the interrupt tests: the highest id of three, so it
// dials both links and every socket write it makes goes through its
// Dialer.
const trioSize, victim = 3, 2

// trioConfig is node id's config in the three-node loopback mesh.
func trioConfig(id int, addrDir string) Config {
	return Config{
		ID:           id,
		Population:   trioSize,
		Listen:       "127.0.0.1:0",
		AddrDir:      addrDir,
		EpochTimeout: 30 * time.Second,
		Grace:        30 * time.Second,
	}
}

// trio is one run configuration of the three-node mesh and the
// histories the sequential engine discloses for it.
type trio struct {
	data   [][]float64
	params core.Params
	want   [][]core.IterationResult
}

func newTrio(t *testing.T, params core.Params) *trio {
	t.Helper()
	data, err := SyntheticSeries("cer", trioSize, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := core.RunSequentialHistories(data, params)
	if err != nil {
		t.Fatal(err)
	}
	return &trio{data: data, params: params, want: want}
}

// startSurvivors runs every node but the victim on its own goroutine;
// the returned wait gives their histories and errors.
func (tr *trio) startSurvivors(addrDir string) (wait func() ([][]core.IterationResult, []error)) {
	histories := make([][]core.IterationResult, trioSize)
	errs := make([]error, trioSize)
	var wg sync.WaitGroup
	for id := 0; id < trioSize; id++ {
		if id == victim {
			continue
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			histories[id], errs[id] = Run(trioConfig(id, addrDir), tr.data, tr.params)
		}(id)
	}
	return func() ([][]core.IterationResult, []error) {
		wg.Wait()
		return histories, errs
	}
}

// hookedConn runs hook before every Write.
type hookedConn struct {
	net.Conn
	hook func()
}

func (c hookedConn) Write(b []byte) (int, error) {
	c.hook()
	return c.Conn.Write(b)
}

// hookedDialer dials for real and runs hook before every Write on the
// connections it opens.
func hookedDialer(hook func()) func(network, addr string, timeout time.Duration) (net.Conn, error) {
	return func(network, addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		return hookedConn{conn, hook}, nil
	}
}

// victimWritesBeforeFinalTicks runs the mesh once uninterrupted and
// counts the victim's socket writes before the ones carrying its final
// ticks, one per link, which are the last it makes before it logs the
// end of the run.
func (tr *trio) victimWritesBeforeFinalTicks(t *testing.T) int {
	t.Helper()
	addrDir := t.TempDir()
	wait := tr.startSurvivors(addrDir)
	var writes, atEnd atomic.Int64
	vcfg := trioConfig(victim, addrDir)
	vcfg.Dialer = hookedDialer(func() { writes.Add(1) })
	vcfg.Logf = func(format string, args ...any) {
		if strings.HasPrefix(format, "node %d terminated at epoch") {
			atEnd.Store(writes.Load())
		}
	}
	_, err := Run(vcfg, tr.data, tr.params)
	if _, errs := wait(); err != nil || errs[0] != nil || errs[1] != nil {
		t.Fatalf("uninterrupted run: %v, %v", err, errs)
	}
	return int(atEnd.Load()) - (trioSize - 1)
}

// interruptCase is one interrupted and resumed run of the victim.
type interruptCase struct {
	every int // the victim's checkpoint cadence
	// fire reports whether the victim's w-th socket write (from 1),
	// about to be made, fires its interrupt; checkpointed says whether
	// it has written a checkpoint yet. The first write it is true for
	// fires it. Nil fires it before the run starts.
	fire func(w int, checkpointed bool) bool
	tear bool // tear the newest checkpoint slot before resuming
}

func (tr *trio) interruptResume(t *testing.T, tc interruptCase) {
	addrDir := t.TempDir()
	wait := tr.startSurvivors(addrDir)
	interrupted := make(chan struct{})
	vcfg := trioConfig(victim, addrDir)
	vcfg.CheckpointDir, vcfg.CheckpointEvery = t.TempDir(), tc.every
	vcfg.Interrupt = interrupted
	if tc.fire == nil {
		close(interrupted)
	} else {
		var writes atomic.Int64
		var checkpointed atomic.Bool
		var once sync.Once
		vcfg.Logf = func(format string, args ...any) {
			if strings.HasPrefix(format, "node %d checkpointed epoch") {
				checkpointed.Store(true)
			}
		}
		vcfg.Dialer = hookedDialer(func() {
			if tc.fire(int(writes.Add(1)), checkpointed.Load()) {
				once.Do(func() { close(interrupted) })
			}
		})
	}
	if _, err := Run(vcfg, tr.data, tr.params); !errors.Is(err, ErrInterrupted) {
		wait()
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	path := checkpointPath(vcfg)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint after interrupt: %v", err)
	}
	if tc.tear {
		tearNewestSlot(t, path)
	}

	vcfg.Interrupt = nil
	vcfg.Resume = true
	got, err := Run(vcfg, tr.data, tr.params)
	histories, errs := wait()
	histories[victim], errs[victim] = got, err
	for id, err := range errs {
		if err != nil {
			t.Errorf("node %d: %v", id, err)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	for id := range histories {
		if !bytes.Equal(gobHistory(t, histories[id]), gobHistory(t, tr.want[id])) {
			t.Errorf("node %d history diverges from sequential reference after interrupt/resume", id)
		}
	}
}

// tearNewestSlot cuts the newest slot's write at half its image, as a
// crash during it would, after checking that the older slot holds the
// periodic checkpoint and the newest the shutdown's, one epoch later:
// the file must then resume from the older slot.
func tearNewestSlot(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	newest, gen, err := readCheckpointFile(b)
	if err != nil || gen != 2 {
		t.Fatalf("interrupted run left generation %d (%v), want 2: the periodic checkpoint, then the shutdown's", gen, err)
	}
	newCk, err := decodeCheckpoint(newest)
	if err != nil {
		t.Fatal(err)
	}
	clear(newest[len(newest)/2:]) // slot 1 was zeroed when the file was laid out
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	older, gen, err := readCheckpointFile(b)
	if err != nil || gen != 1 {
		t.Fatalf("torn file resumes from generation %d (%v), want 1", gen, err)
	}
	oldCk, err := decodeCheckpoint(older)
	if err != nil {
		t.Fatal(err)
	}
	// The periodic checkpoint follows barrier 1; the interrupt fires at
	// the tick of epoch 2, and the shutdown checkpoints that epoch.
	if oldCk.nextEpoch != 2 || newCk.nextEpoch != 3 {
		t.Fatalf("older slot at epoch %d, newest at %d: want 2 and 3", oldCk.nextEpoch, newCk.nextEpoch)
	}
}
