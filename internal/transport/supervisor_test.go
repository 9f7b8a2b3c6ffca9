package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"chiaroscuro/internal/transport/netchaos"
	"chiaroscuro/internal/wire"
)

// supervisor_test.go drives one supervised link between two bare nodes
// — links, inbox and stop channel, no listener, no participant — so the
// batch-per-epoch write, the buffered read and the resume handshake are
// tested without a mesh around them. Node 1 is the dialer side of the
// pair, node 0 the acceptor, as in a real mesh.

const testFingerprint = 0xC0FFEE

func bareNode(id int) *node {
	n := &node{
		cfg: Config{
			ID:           id,
			Population:   2,
			Peers:        []string{"node0", "node1"}, // never dialed: the Dialer hook answers
			EpochTimeout: 5 * time.Second,
		},
		fp:    testFingerprint,
		links: make([]*link, 2),
		in:    make(chan inMsg, 64), // the tests read it only after the sends
		stop:  make(chan struct{}),
	}
	n.links[1-id] = newLink(n, 1-id)
	return n
}

// linkPair is the two ends of one link: a sends, b receives.
type linkPair struct {
	a, b   *node
	la, lb *link
}

// newLinkPair joins two bare nodes over the given connection ends, as
// their join handshake would have.
func newLinkPair(t *testing.T, aEnd, bEnd net.Conn) *linkPair {
	t.Helper()
	p := &linkPair{a: bareNode(1), b: bareNode(0)}
	p.la, p.lb = p.a.links[0], p.b.links[1]
	t.Cleanup(func() {
		close(p.a.stop)
		close(p.b.stop)
		p.a.closeConns()
		p.b.closeConns()
	})
	p.la.installConn(aEnd, 0)
	p.lb.installConn(bEnd, 0)
	return p
}

// dataFrame is the data frame epochEnv.Send builds for payload.
func dataFrame(epoch int, payload []byte) []byte {
	buf, mark := beginData(nil, epoch)
	return wire.EndField(append(buf, payload...), mark)
}

// recordingConn keeps a copy of every Write it passes on.
type recordingConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, bytes.Clone(p))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *recordingConn) recorded() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...)
}

// oneByteConn delivers at most one byte per Read: the worst legal
// fragmentation of a stream.
type oneByteConn struct{ net.Conn }

func (c oneByteConn) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return c.Conn.Read(p)
}

// cutConn passes on the first limit bytes written to it, then dies: a
// connection lost in the middle of a write.
type cutConn struct {
	net.Conn
	limit int
}

func (c *cutConn) Write(p []byte) (int, error) {
	if len(p) <= c.limit {
		c.limit -= len(p)
		return c.Conn.Write(p)
	}
	n := 0
	if c.limit > 0 {
		n, _ = c.Conn.Write(p[:c.limit])
		c.limit = 0
	}
	c.Conn.Close()
	return n, errors.New("test: connection cut mid-write")
}

// epochFrames are the inner frames of one epoch towards one peer: two
// payloads and the tick that flushes them.
func epochFrames(epoch int) [][]byte {
	return [][]byte{
		dataFrame(epoch, []byte("first payload")),
		dataFrame(epoch, bytes.Repeat([]byte{0xAB}, 70)), // does not fit the 64-byte read buffer
		marshalTick(epoch, false),
	}
}

// wireImage is what the link puts on the socket for inner frames
// numbered from firstSeq.
func wireImage(t *testing.T, firstSeq uint64, inner ...[]byte) []byte {
	t.Helper()
	var out []byte
	for i, in := range inner {
		var err error
		if out, err = wire.AppendFrame(out, ringFrame(firstSeq+uint64(i), in)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// requireDelivered reads the receiver's inbox: exactly the given frames,
// in order, under consecutive sequence numbers from firstSeq.
func requireDelivered(t *testing.T, n *node, firstSeq uint64, inner ...[]byte) {
	t.Helper()
	for i, in := range inner {
		select {
		case m := <-n.in:
			if m.err != nil {
				t.Fatalf("frame %d: receiver reported %v", i, m.err)
			}
			if m.seq != firstSeq+uint64(i) || m.kind != in[0] {
				t.Fatalf("frame %d: delivered seq %d kind 0x%02x, want seq %d kind 0x%02x", i, m.seq, m.kind, firstSeq+uint64(i), in[0])
			}
			if m.kind == mtData {
				if _, want, _ := parseData(in[1:]); !bytes.Equal(m.payload, want) {
					t.Fatalf("frame %d: payload of %d bytes, want %d", i, len(m.payload), len(want))
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d of %d never delivered", i, len(inner))
		}
	}
}

func sendAll(t *testing.T, l *link, epoch int, inner [][]byte) {
	t.Helper()
	for _, in := range inner {
		if err := l.send(epoch, in); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLinkWritesOncePerEpoch: data frames wait for the tick, the tick
// writes the lot in one Write, a ceremony frame writes at once, and a
// reader fed one byte at a time still delivers every frame once.
func TestLinkWritesOncePerEpoch(t *testing.T) {
	aEnd, bEnd := net.Pipe()
	rec := &recordingConn{Conn: aEnd}
	p := newLinkPair(t, rec, oneByteConn{bEnd})

	frames := epochFrames(0)
	sendAll(t, p.la, 0, frames[:2])
	if w := rec.recorded(); len(w) != 0 {
		t.Fatalf("%d writes before the tick: data frames must wait for it", len(w))
	}
	sendAll(t, p.la, 0, frames[2:])
	w := rec.recorded()
	if len(w) != 1 || !bytes.Equal(w[0], wireImage(t, 1, frames...)) {
		t.Fatalf("the epoch took %d writes, want one carrying [data, data, tick]", len(w))
	}
	requireDelivered(t, p.b, 1, frames...)

	key := marshalKey(keyRoundDeal, []byte("deal"))
	sendAll(t, p.la, 0, [][]byte{key})
	if w := rec.recorded(); len(w) != 2 || !bytes.Equal(w[1], wireImage(t, 4, key)) {
		t.Fatalf("%d writes after a ceremony frame, want it written at once", len(w))
	}
	requireDelivered(t, p.b, 4, key)

	// An epoch without payloads is the tick alone, and a link keeps no
	// batch between epochs whatever the last one carried.
	sendAll(t, p.la, 1, [][]byte{marshalTick(1, true)})
	requireDelivered(t, p.b, 5, marshalTick(1, true))
	if len(rec.recorded()) != 3 {
		t.Fatalf("%d writes, want 3", len(rec.recorded()))
	}
	if p.la.batch != nil {
		t.Fatalf("the link kept a %d-byte batch between epochs", cap(*p.la.batch))
	}
}

// TestLinkBatchThroughPartialWrites sends the epoch through a netchaos
// connection that splits every write in two.
func TestLinkBatchThroughPartialWrites(t *testing.T) {
	chaos, err := netchaos.New("partial", 1)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	aEnd, err := chaos.Dial("tcp", ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bEnd, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	p := newLinkPair(t, aEnd, bEnd)
	for epoch := 0; epoch < 3; epoch++ {
		frames := epochFrames(epoch)
		sendAll(t, p.la, epoch, frames)
		requireDelivered(t, p.b, uint64(3*epoch+1), frames...)
	}
	if got := chaos.Injected().Splits; got != 3 {
		t.Fatalf("netchaos split %d writes, want 3: one per epoch", got)
	}
}

// TestLinkBatchCutAnywhereResumes loses the connection after every
// possible number of bytes of an epoch's batch. Each time the real
// resume handshake runs (connectLoop against handleInbound), the ring
// retransmits — in one write — exactly the frames beyond the sequence
// number the receiver acknowledged, and the receiver delivers every
// frame exactly once, in order.
func TestLinkBatchCutAnywhereResumes(t *testing.T) {
	frames := epochFrames(0)
	batch := wireImage(t, 1, frames...)
	// whole[k] is how many frames lie entirely within the first k bytes.
	whole := make([]int, len(batch))
	for k, end, done := 0, 0, 0; k < len(batch); k++ {
		for done < len(frames) && end+4+8+len(frames[done]) <= k {
			end += 4 + 8 + len(frames[done])
			done++
		}
		whole[k] = done
	}
	for cut := 0; cut < len(batch); cut++ {
		cut := cut
		t.Run(fmt.Sprint(cut), func(t *testing.T) {
			t.Parallel()
			aEnd, bEnd := net.Pipe()
			p := newLinkPair(t, &cutConn{Conn: aEnd, limit: cut}, bEnd)

			// The redial: wait until the receiver has read up to the cut
			// and seen the connection die, then hand it the other end of
			// a fresh pipe as an inbound connection.
			redialed := make(chan *recordingConn, 1)
			p.a.cfg.Dialer = func(string, string, time.Duration) (net.Conn, error) {
				for down, _, _ := p.lb.state(); !down; down, _, _ = p.lb.state() {
					time.Sleep(time.Millisecond)
				}
				a2, b2 := net.Pipe()
				go p.b.handleInbound(b2)
				rec := &recordingConn{Conn: a2}
				redialed <- rec
				return rec, nil
			}

			sendAll(t, p.la, 0, frames)
			next := marshalTick(1, false)
			var rec *recordingConn
			select {
			case rec = <-redialed:
			case <-time.After(5 * time.Second):
				t.Fatal("the link never redialed")
			}
			// The next epoch's tick queues behind the retransmission
			// whether the link is back up yet or not.
			sendAll(t, p.la, 1, [][]byte{next})
			requireDelivered(t, p.b, 1, append(frames[:len(frames):len(frames)], next)...)

			// On the new connection: the resume frame (a WriteFrame: header,
			// payload), then everything past the acknowledged frame at once.
			acked := whole[cut]
			var after []byte
			for _, w := range rec.recorded()[2:] {
				after = append(after, w...)
			}
			want := wireImage(t, uint64(acked+1), append(frames[acked:len(frames):len(frames)], next)...)
			if !bytes.Equal(after, want) {
				t.Fatalf("cut at byte %d (%d frames whole): %d bytes followed the handshake, want the %d of frames %d..4",
					cut, acked, len(after), len(want), acked+1)
			}
			if first := rec.recorded()[2]; len(first) < len(want)-(4+8+len(next)) {
				t.Fatalf("the retransmission was split: its first write carried %d bytes", len(first))
			}
		})
	}
}
