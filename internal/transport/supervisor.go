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
// With Config.Grace == 0 none of the tolerance engages: the first link
// error is delivered as a fatal inMsg, the legacy fail-fast contract.

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
	gen        int // bumped on every conn install/teardown; gates stale readLoops
	down       bool
	downSince  time.Time
	lastResume time.Time // when the link last came back up via resume
	redialing  bool

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

func newLink(n *node, peer int) *link {
	return &link{n: n, peer: peer, dialerSide: peer < n.cfg.ID}
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
// the protocol alone. Under grace a write failure (or an already-down
// link) is not an error: the frame waits in the ring for the resume
// handshake.
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
		if l.n.cfg.Grace > 0 {
			return nil
		}
		return fmt.Errorf("transport: send to peer %d: link down", l.peer)
	}
	l.queueLocked(framed)
	if inner[0] == mtData {
		return nil
	}
	if err := l.flushLocked(); err != nil && l.n.cfg.Grace <= 0 {
		return fmt.Errorf("transport: send to peer %d: %w", l.peer, err)
	}
	return nil
}

// flushLocked writes the batch in one Write under the write deadline
// and returns it to the pool (l.mu held, link up, batch pending). A
// failure takes the link down — under grace the redial loop is started
// here — and is returned for the fail-fast callers to surface.
func (l *link) flushLocked() error {
	l.conn.SetWriteDeadline(time.Now().Add(l.n.cfg.writeTimeout()))
	_, err := l.conn.Write(*l.batch)
	l.dropBatchLocked()
	if err != nil && l.markDownLocked(err) {
		go l.redialLoop()
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
// reports whether the caller should start a redial loop. It never
// delivers the fatal error itself — under grace there is nothing fatal,
// and without grace the caller owns the error path.
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
	if l.n.cfg.Grace > 0 && l.dialerSide && !l.redialing {
		l.redialing = true
		return true
	}
	return false
}

// markDown is the unlocked entry point used by read loops. gen fences
// out loops reading from a connection that was already replaced. With
// grace disabled the error is delivered as fatal, preserving the
// legacy behavior.
func (l *link) markDown(gen int, cause error) {
	l.mu.Lock()
	if l.gen != gen || l.n.stopped() {
		l.mu.Unlock()
		return
	}
	redial := l.markDownLocked(cause)
	l.mu.Unlock()
	if l.n.cfg.Grace <= 0 {
		l.n.deliver(inMsg{from: l.peer, err: cause})
		return
	}
	if redial {
		go l.redialLoop()
	}
}

// installConn adopts a fresh connection for this link (formation join
// or completed resume handshake), retransmits every ring frame beyond
// what the peer acknowledged — as one batch, which replaces whatever
// the old connection had pending — and starts the read loop. resumed
// marks a post-outage reinstall, which grants the peer a fresh barrier
// budget.
func (l *link) installConn(conn net.Conn, peerLastSeq uint64, resumed bool) {
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
	if resumed {
		l.lastResume = time.Now()
	}
	l.dropBatchLocked()
	for _, sf := range l.ring {
		if sf.seq > peerLastSeq {
			l.queueLocked(sf.frame)
		}
	}
	if l.batch != nil {
		if err := l.flushLocked(); err != nil {
			l.mu.Unlock()
			if l.n.cfg.Grace <= 0 {
				l.n.deliver(inMsg{from: l.peer, err: fmt.Errorf("retransmit after seq %d: %w", peerLastSeq, err)})
			}
			return
		}
	}
	l.mu.Unlock()
	if resumed {
		l.n.cfg.logf("node %d: link to peer %d resumed (acked seq %d)", l.n.cfg.ID, l.peer, peerLastSeq)
	}
	go l.readLoop(gen, conn)
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
func (l *link) readLoop(gen int, conn net.Conn) {
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
			// back. Under grace, tear the link down so the dialer side
			// starts probing for a restart (at an orderly end of run the
			// probe dies with n.stop); without grace, just stop reading,
			// so the peer's subsequent close is never surfaced as an
			// error — the barrier decides whether the bye was orderly.
			l.mu.Lock()
			stale := l.gen != gen
			l.mu.Unlock()
			if stale {
				return
			}
			l.n.deliver(inMsg{from: l.peer, kind: mtBye})
			if l.n.cfg.Grace > 0 {
				l.markDown(gen, errPeerLeft)
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

// redialLoop re-establishes a broken dialer-side link: deterministic
// capped backoff, re-resolved peer address each attempt (a restarted
// peer publishes a new port in rendezvous mode), then the mtResume
// handshake. It runs until it succeeds, the peer rejects the resume
// (fatal), or the node stops; giving up on a peer that stays dead is
// the barrier's job (grace expiry), not the dialer's.
func (l *link) redialLoop() {
	seed := backoffSeed(l.n.fp, l.n.cfg.ID, l.peer)
	for attempt := 0; ; attempt++ {
		select {
		case <-time.After(backoffDelay(seed, attempt)):
		case <-l.n.stop:
			return
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
			l.installConn(conn, peerLast, true)
			return
		case mtReject:
			reason, _ := parseReject(frame[1:])
			conn.Close()
			l.n.deliver(inMsg{from: l.peer, err: fmt.Errorf("transport: peer %d rejected resume: %s", l.peer, reason)})
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
	conn.SetWriteDeadline(time.Now().Add(l.n.cfg.writeTimeout()))
	if err := wire.WriteFrame(conn, marshalResumeOK(l.n.cfg.ID, lastSeq)); err != nil {
		conn.Close()
		return "" // handshake write failed; peer will redial
	}
	conn.SetDeadline(time.Time{})
	l.installConn(conn, r.LastSeq, true)
	return ""
}
