package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"chiaroscuro/internal/wire"
)

// supervisor.go is the per-peer link layer that makes the mesh
// crash-tolerant. Every peer connection is owned by a link, which
//
//   - starts down and comes up through the resume handshake, a first
//     join being a resume from sequence 0 (the dialer is the higher id);
//   - tags every post-handshake frame with a monotonic sequence number
//     (an 8-byte big-endian prefix inside the wire frame), so delivery
//     stays exactly-once and FIFO across reconnects;
//   - hands the socket one Write per epoch: the epoch's data frames wait
//     in the link's batch for the tick that follows them, and the read
//     side parses whatever arrived together out of one Read;
//   - keeps a bounded ring of sent frames for retransmission, pruned by
//     epoch once the barrier protocol proves the peer must have them;
//   - bounds every write with a deadline and every read with an idle
//     deadline, so a dead peer can neither block a sender forever nor
//     leave a silent half-open connection behind;
//   - redials a broken connection (dialer side only — the original dial
//     roles are preserved) with deterministic capped backoff, re-running
//     the mtResume handshake and retransmitting whatever the peer
//     missed.
//
// A link error is never fatal by itself: how long a peer may stay away
// is the epoch barrier's decision (Config.Grace), not the link's.

// sentFrame is one retransmittable frame: the fully framed bytes (seq
// prefix included) plus the epoch it belongs to, which drives pruning.
type sentFrame struct {
	seq   uint64
	epoch int
	frame []byte
}

// link supervises the connection to one peer.
type link struct {
	n          *node
	peer       int
	dialerSide bool // this node dials (peer id is lower)

	mu         sync.Mutex
	conn       net.Conn
	gen        int           // bumped on every conn install/teardown; gates stale readLoops
	readDone   chan struct{} // closed when the newest conn's readLoop returns
	down       bool
	downSince  time.Time
	lastResume time.Time // when the link last came back up via resume
	redialing  bool      // a connect loop is running (dialer side)
	joined     bool      // the link has been up before in this process
	left       bool      // the peer said bye on the current connection

	outSeq uint64      // last sequence number assigned to an outgoing frame
	inSeq  uint64      // last sequence number delivered from the peer
	pruned uint64      // highest sequence number dropped from the ring
	ring   []sentFrame // unacknowledged frames, ascending seq

	// batch is the wire image of the ring frames not yet handed to conn
	// (nil when none are pending): data frames wait here for their
	// epoch's tick, so the socket sees one Write per epoch. Every frame in
	// it is in the ring too, which is why a link that goes down or is
	// re-installed just drops it. It comes from batchPool and goes back
	// after every write, not kept for the next: a 16-node mesh in one
	// process has 240 links, and a buffer grown for one payload would
	// stay grown on each.
	batch *[]byte
}

// batchPool recycles link batches. A batch is held only from the first
// frame an epoch queues to the Write that flushes it, so a process needs
// about as many as it has links flushing at once.
var batchPool = sync.Pool{New: func() any { return new([]byte) }}

// queueLocked appends one sequenced frame to the link's batch, taking a
// batch from the pool when none is pending (l.mu held).
func (l *link) queueLocked(framed []byte) {
	if l.batch == nil {
		l.batch = batchPool.Get().(*[]byte)
	}
	*l.batch, _ = wire.AppendFrame(*l.batch, framed)
}

// dropBatchLocked returns the pending batch, if any, to the pool
// (l.mu held).
func (l *link) dropBatchLocked() {
	if l.batch == nil {
		return
	}
	*l.batch = (*l.batch)[:0]
	batchPool.Put(l.batch)
	l.batch = nil
}

// newLink returns a link that is down, as every link starts: on the
// dialer side, formation starts its connect loop.
func newLink(n *node, peer int) *link {
	dialer := peer < n.cfg.ID
	return &link{n: n, peer: peer, dialerSide: dialer, down: true, downSince: time.Now(), redialing: dialer}
}

// state returns a snapshot of the link's liveness for barrier
// diagnostics and grace accounting.
func (l *link) state() (down bool, since, lastResume time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.down, l.downSince, l.lastResume
}

// send assigns the next sequence number to the inner frame, records it
// in the retransmit ring — the one copy of inner that send makes, since
// the ring must keep the frame for retransmission while the caller
// reuses its buffer — and appends it to the link's batch. A data
// frame waits there: the epoch's tick, which runEpochs sends to every
// link right after Step, is what writes the batch — one Write under one
// deadline for the whole epoch. Every other kind (the tick, a ceremony
// frame) writes at once, so when the socket is written is a function of
// the protocol alone. A write failure (or an already-down link) is not
// an error: the frame waits in the ring for the resume handshake.
func (l *link) send(epoch int, inner []byte) error {
	if 8+len(inner) > wire.MaxFrameBytes {
		// Refused before it takes a sequence number: a frame no write
		// can carry must not sit in the ring to be retransmitted.
		return fmt.Errorf("transport: send to peer %d: %w", l.peer, wire.ErrFrameTooBig)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.outSeq++
	framed := make([]byte, 8+len(inner))
	binary.BigEndian.PutUint64(framed, l.outSeq)
	copy(framed[8:], inner)
	l.ring = append(l.ring, sentFrame{seq: l.outSeq, epoch: epoch, frame: framed})
	if l.down || l.conn == nil {
		return nil
	}
	l.queueLocked(framed)
	if inner[0] != mtData {
		l.flushLocked()
	}
	return nil
}

// flushLocked writes the batch in one Write under the write deadline
// and returns it to the pool (l.mu held, link up, batch pending). A
// failure takes the link down, starts the redial on the dialer side,
// and is reported so installConn does not read from the dead
// connection.
func (l *link) flushLocked() error {
	l.conn.SetWriteDeadline(time.Now().Add(l.n.cfg.EpochTimeout))
	_, err := l.conn.Write(*l.batch)
	l.dropBatchLocked()
	if err != nil && l.markDownLocked(err) {
		go l.connectLoop(false)
	}
	return err
}

// sendBye writes the departure notice as an unsequenced link-control
// frame (a bare 1-byte frame, like the handshake frames): it consumes
// no sequence number and never enters the retransmit ring, so a node
// that checkpoints, says bye, and later resumes re-issues its next
// protocol frame under exactly the seq the peer expects — a sequenced
// bye would make the survivor drop the resumed node's first real frame
// as a duplicate. Best-effort: a peer we cannot reach learns of the
// departure from the dead link instead.
func (l *link) sendBye() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down || l.conn == nil {
		return
	}
	l.queueLocked(marshalBye())
	l.flushLocked()
}

// markDownLocked tears the current connection down (l.mu held) and
// reports whether the caller should start a redial loop.
func (l *link) markDownLocked(cause error) (startRedial bool) {
	l.gen++
	l.dropBatchLocked()
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	if !l.down {
		l.down = true
		l.downSince = time.Now()
		l.n.cfg.logf("node %d: link to peer %d down: %v", l.n.cfg.ID, l.peer, cause)
	}
	if l.dialerSide && !l.redialing {
		l.redialing = true
		return true
	}
	return false
}

// markDown is the unlocked entry point used by read loops. gen fences
// out loops reading from a connection that was already replaced.
func (l *link) markDown(gen int, cause error) {
	l.mu.Lock()
	if l.gen != gen || l.n.stopped() {
		l.mu.Unlock()
		return
	}
	redial := l.markDownLocked(cause)
	l.mu.Unlock()
	if redial {
		go l.connectLoop(false)
	}
}

// dropLeft takes the link down if its peer said bye on the current
// connection — called by the barrier once the bye proves to be a mid-run
// leave — so the dialer side probes for the peer's restart and the
// barrier's grace window runs from now.
func (l *link) dropLeft() {
	l.mu.Lock()
	if !l.left || l.down {
		l.mu.Unlock()
		return
	}
	redial := l.markDownLocked(errPeerLeft)
	l.mu.Unlock()
	if redial {
		go l.connectLoop(false)
	}
}

// installConn adopts the connection of a completed resume handshake,
// retransmits every ring frame beyond what the peer acknowledged — as
// one batch, which replaces whatever the old connection had pending —
// and starts the read loop. A link that was up before, or any link of a
// node resuming from its checkpoint, comes back resumed: it is logged
// as such and grants the peer a fresh barrier budget. A first join is
// neither.
func (l *link) installConn(conn net.Conn, peerLastSeq uint64) {
	l.mu.Lock()
	if l.n.stopped() {
		l.mu.Unlock()
		conn.Close()
		return
	}
	if l.conn != nil {
		l.conn.Close()
	}
	l.gen++
	gen := l.gen
	l.conn = conn
	l.down = false
	l.downSince = time.Time{}
	l.redialing = false
	l.left = false
	resumed := l.joined || l.n.cfg.Resume
	l.joined = true
	if resumed {
		l.lastResume = time.Now()
	}
	l.dropBatchLocked()
	for _, sf := range l.ring {
		if sf.seq > peerLastSeq {
			l.queueLocked(sf.frame)
		}
	}
	if l.batch != nil && l.flushLocked() != nil {
		l.mu.Unlock()
		return
	}
	prev, done := l.readDone, make(chan struct{})
	l.readDone = done
	l.mu.Unlock()
	l.n.signalLinkUp()
	if resumed {
		l.n.cfg.logf("node %d: link to peer %d resumed (acked seq %d)", l.n.cfg.ID, l.peer, peerLastSeq)
	}
	go l.readLoop(gen, conn, prev, done)
}

// accept applies the sequencing rules to one received frame (l.mu
// held briefly): duplicates from retransmission are dropped, the next
// expected frame is delivered, and a sequence gap — possible only if
// the peer pruned frames we never saw — is fatal.
func (l *link) accept(gen int, framed []byte) (inner []byte, fresh bool, err error) {
	if len(framed) < 8 {
		return nil, false, fmt.Errorf("transport: peer %d sent a frame below the sequence header", l.peer)
	}
	seq := binary.BigEndian.Uint64(framed)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.gen != gen {
		return nil, false, nil // stale connection; drop silently
	}
	switch {
	case seq <= l.inSeq:
		return nil, false, nil // duplicate from a resume retransmit
	case seq == l.inSeq+1:
		l.inSeq = seq
		return framed[8:], true, nil
	default:
		return nil, false, fmt.Errorf("transport: peer %d frame gap: got seq %d, want %d", l.peer, seq, l.inSeq+1)
	}
}

// readLoop parses sequenced frames from one connection until it dies
// or is replaced, through a wire.FrameReader of its own: a tick costs
// one Read, and a peer's batch is parsed out of as few as arrive. Each
// read is bounded by an idle deadline generous enough to cover a full
// barrier stall plus the grace window.
//
// It starts once prev, the previous connection's loop, has returned: a
// frame that loop accepted just before the switch may not be delivered
// yet, and the frames after it, which this connection carries, must
// not overtake it — a tick delivered before its epoch's data would
// pass the barrier without them. The old connection is closed by then,
// so the wait is short. done is closed when this loop returns.
func (l *link) readLoop(gen int, conn net.Conn, prev <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	if prev != nil {
		<-prev
	}
	idle := 2*l.n.cfg.EpochTimeout + l.n.cfg.Grace
	frames := wire.NewFrameReader(conn)
	for {
		conn.SetReadDeadline(time.Now().Add(idle))
		framed, err := frames.ReadFrame()
		if err != nil {
			l.markDown(gen, err)
			return
		}
		if len(framed) == 1 && framed[0] == mtBye {
			// Unsequenced link-control bye: the peer is leaving — either
			// the run ended or the peer was interrupted and may come
			// back. Stop reading, so the peer's close is never taken for
			// a fault: the barrier decides which it was (dropLeft). A
			// link stays up through an orderly end of run, so whether
			// this node's own bye is written never depends on which of
			// the two arrived first.
			l.mu.Lock()
			stale := l.gen != gen
			l.left = !stale
			l.mu.Unlock()
			if !stale {
				l.n.deliver(inMsg{from: l.peer, kind: mtBye})
			}
			return
		}
		inner, fresh, err := l.accept(gen, framed)
		if err != nil {
			l.mu.Lock()
			stale := l.gen != gen
			l.mu.Unlock()
			if !stale {
				l.n.deliver(inMsg{from: l.peer, err: err})
			}
			return
		}
		if !fresh {
			l.mu.Lock()
			stale := l.gen != gen
			l.mu.Unlock()
			if stale {
				return
			}
			continue
		}
		m := inMsg{from: l.peer, seq: binary.BigEndian.Uint64(framed)}
		if len(inner) == 0 {
			m.err = fmt.Errorf("transport: empty frame")
		} else {
			m.kind = inner[0]
			switch inner[0] {
			case mtTick:
				m.epoch, m.done, m.err = parseTick(inner[1:])
			case mtData:
				m.epoch, m.payload, m.err = parseData(inner[1:])
			case mtKey:
				// Ceremony frames reuse the epoch slot for the round tag.
				m.epoch, m.payload, m.err = parseKey(inner[1:])
			default:
				// mtBye never travels sequenced (see sendBye).
				m.err = fmt.Errorf("transport: unexpected frame kind 0x%02x", inner[0])
			}
		}
		l.n.deliver(m)
		if m.err != nil {
			return
		}
	}
}

// errPeerLeft marks a voluntary departure (bye) rather than a network
// failure.
var errPeerLeft = fmt.Errorf("transport: peer sent bye")

// prune drops ring frames from epochs old enough that the barrier
// protocol proves every peer received them (a peer resuming from a
// checkpoint can be at most the checkpoint cadence plus one barrier
// behind). pruned records the watermark so a resume asking for dropped
// frames is detected instead of silently gapped.
func (l *link) prune(beforeEpoch int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	keep := 0
	for _, sf := range l.ring {
		if sf.epoch < beforeEpoch {
			if sf.seq > l.pruned {
				l.pruned = sf.seq
			}
			continue
		}
		l.ring[keep] = sf
		keep++
	}
	for i := keep; i < len(l.ring); i++ {
		l.ring[i] = sentFrame{}
	}
	l.ring = l.ring[:keep]
}

// connectLoop brings a dialer-side link up: it re-resolves the peer's
// address each attempt (a restarted peer publishes a new port in
// rendezvous mode), dials, and runs the mtResume handshake, announcing
// the last sequence number seen from the peer (0 on a first join). A
// join makes its first attempt at once; a redial after a drop or a bye
// waits out the link's deterministic capped backoff before each
// attempt. The loop runs until the link is up, the peer rejects the
// resume (fatal: the reason goes to n.rejected), or the node stops;
// giving up on a peer that stays dead is the barrier's job, not the
// dialer's.
func (l *link) connectLoop(join bool) {
	seed := backoffSeed(l.n.fp, l.n.cfg.ID, l.peer)
	for attempt := 0; ; attempt++ {
		if !join || attempt > 0 {
			select {
			case <-time.After(backoffDelay(seed, attempt)):
			case <-l.n.stop:
				return
			}
		}
		l.mu.Lock()
		lastSeq := l.inSeq
		stillDown := l.down
		l.mu.Unlock()
		if !stillDown {
			return
		}
		addr, err := l.n.peerAddr(l.peer)
		if err != nil {
			continue
		}
		conn, err := l.n.dial(addr, l.n.cfg.EpochTimeout)
		if err != nil {
			continue
		}
		conn.SetDeadline(time.Now().Add(l.n.cfg.EpochTimeout))
		r := resume{ID: l.n.cfg.ID, Population: l.n.cfg.Population, Fingerprint: l.n.fp, LastSeq: lastSeq}
		if err := wire.WriteFrame(conn, marshalResume(r)); err != nil {
			conn.Close()
			continue
		}
		frame, err := wire.ReadFrame(conn)
		if err != nil || len(frame) == 0 {
			conn.Close()
			continue
		}
		switch frame[0] {
		case mtResumeOK:
			id, peerLast, err := parseResumeOK(frame[1:])
			if err != nil || id != l.peer {
				conn.Close()
				continue
			}
			conn.SetDeadline(time.Time{})
			l.installConn(conn, peerLast)
			return
		case mtReject:
			reason, _ := parseReject(frame[1:])
			conn.Close()
			l.n.reject(fmt.Errorf("transport: peer %d rejected the link: %s", l.peer, reason))
			return
		default:
			conn.Close()
		}
	}
}

// handleResume serves the acceptor side of the reconnect handshake on
// a fresh inbound connection: acknowledge with our own lastSeqSeen and
// adopt the connection (retransmitting from the ring). Returns an
// error string to reject with, or "" on success.
func (l *link) handleResume(conn net.Conn, r resume) string {
	l.mu.Lock()
	if r.LastSeq < l.pruned {
		l.mu.Unlock()
		return fmt.Sprintf("resume from seq %d but frames up to %d were pruned", r.LastSeq, l.pruned)
	}
	lastSeq := l.inSeq
	l.mu.Unlock()
	conn.SetWriteDeadline(time.Now().Add(l.n.cfg.EpochTimeout))
	if err := wire.WriteFrame(conn, marshalResumeOK(l.n.cfg.ID, lastSeq)); err != nil {
		conn.Close()
		return "" // handshake write failed; peer will redial
	}
	conn.SetDeadline(time.Time{})
	l.installConn(conn, r.LastSeq)
	return ""
}
