package transport

import (
	"net"
	"testing"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/p2p"
)

// captureEnv steps a participant alone and keeps what it sends.
type captureEnv struct {
	id, n   int
	cycle   int
	sampler *p2p.Sampler
	sent    []any
}

func (e *captureEnv) ID() p2p.NodeID       { return p2p.NodeID(e.id) }
func (e *captureEnv) Cycle() int           { return e.cycle }
func (e *captureEnv) AliveCount() int      { return e.n }
func (e *captureEnv) Inbox() []p2p.Message { return nil }
func (e *captureEnv) RandomPeer() (p2p.NodeID, bool) {
	return e.sampler.RandomPeer()
}
func (e *captureEnv) Send(to p2p.NodeID, payload any, bytes int) error {
	e.sent = append(e.sent, payload)
	return nil
}

// discardConn is a connection whose writes always succeed.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error)      { return len(b), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }
func (discardConn) Close() error                     { return nil }

// TestSendAllocatesTheRingEntry: with the node's send scratch and a
// pooled link batch warm, handing a gossip payload to a link costs one
// allocation — the retransmit-ring entry the link must keep — and
// flushing the batch costs none.
func TestSendAllocatesTheRingEntry(t *testing.T) {
	const pop, id, peer = 4, 1, 2
	data, err := SyntheticSeries("cer", pop, 3)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := core.NewNode(data, core.Params{K: 2, Epsilon: 1.0, Iterations: 2, Seed: 3, Backend: core.BackendPlainAccounted}, id)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	capture := &captureEnv{id: id, n: pop, sampler: p2p.NewSampler(cn.SamplingSeed(), id, pop)}
	for capture.cycle = 0; len(capture.sent) == 0 && capture.cycle < 10; capture.cycle++ {
		cn.Step(capture)
	}
	if len(capture.sent) == 0 {
		t.Fatal("the participant sent nothing")
	}
	payload := capture.sent[0]

	n := &node{cfg: Config{ID: id, Population: pop}, core: cn, links: make([]*link, pop)}
	l := newLink(n, peer)
	l.conn, l.down = discardConn{}, false // up, as the handshake leaves it
	n.links[peer] = l
	env := &epochEnv{n: n, epoch: 3}
	send := func() {
		if err := env.Send(peer, payload, 0); err != nil {
			t.Fatal(err)
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.batch == nil || len(l.ring) != 1 {
			t.Fatalf("the data frame is not waiting in the batch and the ring")
		}
		if err := l.flushLocked(); err != nil {
			t.Fatal(err)
		}
		l.ring = l.ring[:0]
	}
	send()
	if got := testing.AllocsPerRun(100, send); got != 1 {
		if raceEnabled {
			t.Logf("Send + flush allocates %v times under -race (sync.Pool drops Puts there)", got)
			return
		}
		t.Errorf("Send + flush allocates %v times, want 1: the ring entry", got)
	}
}
