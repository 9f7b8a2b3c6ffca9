package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/transport"
)

// connStats counts what the mesh actually hands to its sockets. The
// counters are atomic so that timed repetitions pay two atomic adds per
// Write; with a tracer attached every Write is also a span.
type connStats struct {
	bytes  atomic.Int64
	writes atomic.Int64

	tr     *tracer
	parent int // span the write spans hang under
}

type countingConn struct {
	net.Conn
	st *connStats
}

func (c *countingConn) Write(p []byte) (int, error) {
	id := c.st.tr.begin(spanConnWrite, c.st.parent)
	n, err := c.Conn.Write(p)
	c.st.tr.end(id)
	c.st.bytes.Add(int64(n))
	c.st.writes.Add(1)
	return n, err
}

type countingListener struct {
	net.Listener
	st *connStats
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, st: l.st}, nil
}

func (st *connStats) dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, st: st}, nil
}

func (st *connStats) listen(network, addr string) (net.Listener, error) {
	l, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: l, st: st}, nil
}

// nodeMarks are the instants one mesh node logged its progress lines.
type nodeMarks struct {
	start        time.Time
	meshComplete time.Time
	keyShare     time.Time // zero on the accounted backend
	checkpoints  []time.Time
	terminated   time.Time
	epoch        int // E of "terminated at epoch E"
}

// ready is when the node could start stepping epochs.
func (m *nodeMarks) ready() time.Time {
	if !m.keyShare.IsZero() {
		return m.keyShare
	}
	return m.meshComplete
}

// logf returns the Config.Logf hook for one node. It matches the format
// strings, not formatted text, so a timed repetition formats nothing.
func (m *nodeMarks) logf() func(string, ...any) {
	return func(format string, args ...any) {
		now := time.Now()
		switch {
		case strings.HasPrefix(format, "node %d mesh complete"):
			m.meshComplete = now
		case strings.HasPrefix(format, "node %d holds key share"):
			m.keyShare = now
		case strings.HasPrefix(format, "node %d checkpointed epoch"):
			m.checkpoints = append(m.checkpoints, now)
		case strings.HasPrefix(format, "node %d terminated at epoch"):
			m.terminated = now
			if len(args) > 1 {
				m.epoch, _ = args[1].(int)
			}
		}
	}
}

// meshResult is one complete in-process mesh run.
type meshResult struct {
	histories [][]core.IterationResult
	marks     []nodeMarks
	wall      time.Duration // first Run launched → last history returned
	bytes     int64         // written to sockets, all nodes
	writes    int64
	ckptBytes int64 // size of node 0's checkpoint file, 0 without checkpoints
}

// epochMS is (terminated − ready) ÷ E, one value per node.
func (r *meshResult) epochMS() []float64 {
	out := make([]float64, 0, len(r.marks))
	for i := range r.marks {
		m := &r.marks[i]
		if m.epoch > 0 && !m.terminated.IsZero() {
			out = append(out, float64(m.terminated.Sub(m.ready()))/1e6/float64(m.epoch))
		}
	}
	return out
}

// epochs is the epoch count E the mesh terminated at (identical on every
// node: the barrier is all-to-all).
func (r *meshResult) epochs() int { return r.marks[0].epoch }

// runMesh runs len(data) transport nodes in this process over loopback
// TCP with AddrDir rendezvous under dir. checkpointEvery > 0 writes
// checkpoints into dir/ckpt. With a tracer, per-node spans are cut at the
// log lines and every socket Write becomes a span under parent.
func runMesh(dir string, data [][]float64, params core.Params, checkpointEvery int, tr *tracer, parent int) (*meshResult, error) {
	n := len(data)
	addrDir := filepath.Join(dir, "addr")
	if err := os.MkdirAll(addrDir, 0o755); err != nil {
		return nil, err
	}
	ckptDir := ""
	if checkpointEvery > 0 {
		ckptDir = filepath.Join(dir, "ckpt")
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			return nil, err
		}
	}
	st := &connStats{tr: tr, parent: parent}
	res := &meshResult{histories: make([][]core.IterationResult, n), marks: make([]nodeMarks, n)}
	errs := make([]error, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			m := &res.marks[id]
			m.start = time.Now()
			cfg := transport.Config{
				ID:              id,
				Population:      n,
				Listen:          "127.0.0.1:0",
				AddrDir:         addrDir,
				EpochTimeout:    60 * time.Second,
				Logf:            m.logf(),
				CheckpointDir:   ckptDir,
				CheckpointEvery: checkpointEvery,
				Dialer:          st.dial,
				Listener:        st.listen,
			}
			res.histories[id], errs[id] = transport.Run(cfg, data, params)
		}(id)
	}
	wg.Wait()
	res.wall = time.Since(t0)
	for id, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("mesh node %d: %w", id, err)
		}
	}
	res.bytes, res.writes = st.bytes.Load(), st.writes.Load()
	if ckptDir != "" {
		if fi, err := os.Stat(filepath.Join(ckptDir, "0.ckpt")); err == nil {
			res.ckptBytes = fi.Size()
		}
	}
	if tr != nil {
		for id := range res.marks {
			m := &res.marks[id]
			node := tr.add("transport:Run", m.start, m.terminated, parent)
			tr.add("transport:form-mesh", m.start, m.meshComplete, node)
			if !m.keyShare.IsZero() {
				tr.add("transport:key-ceremony", m.meshComplete, m.keyShare, node)
			}
			// Epoch spans are cut at the checkpoint lines: each runs from
			// the previous cut to the instant the checkpoint was durable.
			cut := m.ready()
			for _, c := range m.checkpoints {
				tr.add("transport:epochs+checkpoint", cut, c, node)
				cut = c
			}
			tr.add("transport:epochs", cut, m.terminated, node)
		}
	}
	return res, nil
}
