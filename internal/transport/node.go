package transport

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/p2p"
	"chiaroscuro/internal/wire"
)

// ErrInterrupted reports a graceful shutdown: the node received the
// configured interrupt signal, wrote a final checkpoint (when
// checkpointing is enabled), and said bye to its peers. The run can be
// resumed from the checkpoint.
var ErrInterrupted = errors.New("transport: interrupted")

// gracePollInterval is how often a grace-extended barrier re-examines
// link states while waiting for a down peer to come back.
const gracePollInterval = 250 * time.Millisecond

// node is one running mesh member: the core participant, its
// deterministic peer sampler, and one supervised link per peer.
type node struct {
	cfg     Config
	fp      uint64 // run-configuration fingerprint (known pre-ceremony)
	core    *core.Node
	sampler *p2p.Sampler
	ln      net.Listener
	links   []*link // indexed by peer id; nil at cfg.ID
	in      chan inMsg
	stop    chan struct{} // closed on Run exit; unblocks reader sends

	// linkUp wakes formation when a link comes up (one pending signal is
	// enough: formation recounts the links). rejected carries a peer's
	// refusal of a dialer-side link's resume, fatal in every phase.
	linkUp   chan struct{}
	rejected chan error

	// Key-ceremony buffers: peers progress through the ceremony (and
	// into epoch 0) at their own pace, so frames from rounds or epochs
	// we have not reached yet are parked rather than dropped.
	keyPending map[int][]inMsg // ceremony round -> frames
	backlog    []inMsg         // epoch traffic that arrived mid-ceremony

	// Barrier buffers: what peers sent for epochs this node has not
	// stepped past yet.
	pendingData map[int]map[int][][]byte // epoch -> sender -> payloads
	ticks       map[int]map[int]tick     // epoch -> sender -> its tick
	left        map[int]bool             // peers that sent bye

	// consumed[peer] is the seq of the peer's last frame the core has
	// absorbed: its tick(e−1) once epoch e is stepped, its last ceremony
	// frame before that. A checkpoint records it as the link's receive
	// watermark, so that a resume has the peer retransmit everything
	// after it and the barrier buffers refill from the wire.
	consumed []uint64

	// startEpoch is the first epoch to step; a node resumed from a
	// checkpoint first waits at barrier startEpoch−1.
	startEpoch int

	ckpt ckptWriter // checkpoint image storage and open file, kept across checkpoints

	// sendBuf is the scratch every outgoing data frame is built in
	// (epochEnv.Send); link.send copies it into the retransmit ring.
	sendBuf []byte
}

// tick is one peer's tick as the barrier keeps it: the sequence number
// of its frame, and whether the peer's participant is done.
type tick struct {
	seq  uint64
	done bool
}

// inMsg is one parsed message (or terminal condition) from a peer's
// read loop.
type inMsg struct {
	from    int
	kind    byte
	epoch   int
	done    bool
	payload []byte
	seq     uint64 // frame sequence number; 0 for unsequenced frames
	err     error
}

// Run executes one full networked clustering as participant cfg.ID and
// returns that participant's per-iteration history. All processes must
// pass identical (data, params); the handshake fingerprint rejects a
// peer that did not. Run blocks until the whole population terminates,
// an epoch barrier times out (grace expired, if configured), a peer
// violates the protocol, or the interrupt channel fires
// (ErrInterrupted).
//
// The mesh forms before any key exists: the handshake digests the raw
// configuration (core.ConfigFingerprint), and on the Damgård–Jurik
// backend the processes then run the distributed key ceremony over the
// fresh mesh (ceremony.go) — each daemon walks away holding only its
// own key share — before the first epoch is stepped.
//
// With cfg.Resume, the node instead restores its participant, sampler
// and link state from the checkpoint in cfg.CheckpointDir, re-forms the
// mesh the same way — its resume handshakes have the peers retransmit
// every frame after the ones the checkpointed core consumed — and
// rejoins the run at the barrier of the last epoch it stepped. The
// disclosed histories are bit-identical to an uninterrupted run.
func Run(cfg Config, data [][]float64, params core.Params) ([]core.IterationResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(data) != cfg.Population {
		return nil, fmt.Errorf("transport: config population %d but %d series supplied", cfg.Population, len(data))
	}
	fp, err := core.ConfigFingerprint(data, params)
	if err != nil {
		return nil, err
	}

	n := &node{
		cfg:   cfg,
		fp:    fp,
		links: make([]*link, cfg.Population),
		// The buffer absorbs a full population's worth of barrier
		// traffic without blocking readers mid-epoch.
		in:          make(chan inMsg, 8*cfg.Population),
		stop:        make(chan struct{}),
		linkUp:      make(chan struct{}, 1),
		rejected:    make(chan error, cfg.Population),
		keyPending:  make(map[int][]inMsg),
		pendingData: map[int]map[int][][]byte{},
		ticks:       map[int]map[int]tick{},
		left:        map[int]bool{},
		consumed:    make([]uint64, cfg.Population),
	}
	for id := range n.links {
		if id != cfg.ID {
			n.links[id] = newLink(n, id)
		}
	}
	defer close(n.stop)
	defer n.closeConns()
	defer n.ckpt.close()

	var ck *checkpoint
	if cfg.Resume {
		if ck, err = loadCheckpoint(checkpointPath(cfg), cfg, fp); err != nil {
			return nil, err
		}
		n.restoreFromCheckpoint(ck)
	}
	if err := n.formMesh(); err != nil {
		return nil, err
	}
	var cn *core.Node
	if ck != nil {
		cn, err = core.RestoreNode(data, params, cfg.ID, ck.coreSnap)
	} else {
		if params.Backend == core.BackendDamgardJurik && params.DJMaterial == nil {
			m, err := n.runCeremony(cfg.Population, params)
			if err != nil {
				return nil, err
			}
			params.DJMaterial = m
		}
		cn, err = core.NewNode(data, params, cfg.ID)
	}
	if err != nil {
		return nil, err
	}
	defer cn.Close()
	n.core = cn
	n.sampler = p2p.NewSampler(cn.SamplingSeed(), p2p.NodeID(cfg.ID), cfg.Population)
	if ck != nil {
		n.sampler.SetState(ck.samplerState)
	}
	if err := n.runEpochs(); err != nil {
		return nil, err
	}
	return n.core.History(), nil
}

func (n *node) stopped() bool {
	select {
	case <-n.stop:
		return true
	default:
		return false
	}
}

// deliver hands one message to the main loop, giving up when the run
// has ended.
func (n *node) deliver(m inMsg) {
	select {
	case n.in <- m:
	case <-n.stop:
	}
}

// interrupted reports whether the configured interrupt has fired.
func (n *node) interrupted() bool {
	select {
	case <-n.cfg.Interrupt:
		return true
	default:
		return false
	}
}

func (n *node) closeConns() {
	if n.ln != nil {
		n.ln.Close()
	}
	for _, l := range n.links {
		if l == nil {
			continue
		}
		l.mu.Lock()
		if l.conn != nil {
			l.conn.Close()
			l.conn = nil
		}
		l.gen++
		l.mu.Unlock()
	}
}

// listen opens the node's listener, through the chaos hook if one is
// configured.
func (n *node) listen() error {
	var ln net.Listener
	var err error
	if n.cfg.Listener != nil {
		ln, err = n.cfg.Listener("tcp", n.cfg.Listen)
	} else {
		ln, err = net.Listen("tcp", n.cfg.Listen)
	}
	if err != nil {
		return fmt.Errorf("transport: listen: %w", err)
	}
	n.ln = ln
	return nil
}

// dial opens one peer connection, through the chaos hook if one is
// configured.
func (n *node) dial(addr string, timeout time.Duration) (net.Conn, error) {
	if n.cfg.Dialer != nil {
		return n.cfg.Dialer("tcp", addr, timeout)
	}
	return net.DialTimeout("tcp", addr, timeout)
}

// peerAddr resolves a peer's current dial address. In rendezvous mode
// the address file is re-read every time: a restarted peer publishes a
// fresh port, and redial must pick it up.
func (n *node) peerAddr(peer int) (string, error) {
	if n.cfg.AddrDir == "" {
		return n.cfg.Peers[peer], nil
	}
	b, err := os.ReadFile(filepath.Join(n.cfg.AddrDir, fmt.Sprintf("%d.addr", peer)))
	if err != nil {
		return "", err
	}
	addr, ok := parseAddrFile(b, n.fp)
	if !ok {
		return "", fmt.Errorf("transport: stale rendezvous entry for peer %d", peer)
	}
	return addr, nil
}

// formMesh brings the node into the mesh, on a fresh run and on a
// resumed one alike: listen, publish and collect addresses (or take
// Peers), then every link — all of them start down — comes up through
// the resume handshake. Each lower-id link's connect loop dials its
// peer at once; the accept loop serves the higher ids' dials for the
// life of the node. The mesh is formed when every link is up. A peer
// that rejects this node's resume fails formation at once, with its
// reason; a stray dialer this node rejects changes nothing here.
func (n *node) formMesh() error {
	if err := n.listen(); err != nil {
		return err
	}
	deadline := time.Now().Add(n.cfg.formTimeout())
	if n.cfg.AddrDir != "" {
		if err := n.rendezvous(n.ln.Addr().String(), deadline); err != nil {
			return err
		}
	}
	if n.cfg.Resume {
		n.cfg.logf("node %d resuming at epoch %d, listening on %s", n.cfg.ID, n.startEpoch, n.ln.Addr())
	} else {
		n.cfg.logf("node %d listening on %s", n.cfg.ID, n.ln.Addr())
	}
	go n.acceptLoop()
	for _, l := range n.links {
		if l != nil && l.dialerSide {
			go l.connectLoop(true)
		}
	}
	timeout := time.NewTimer(time.Until(deadline))
	defer timeout.Stop()
	want := n.cfg.Population - 1
	for up := n.linksUp(); up < want; up = n.linksUp() {
		select {
		case <-n.linkUp:
		case err := <-n.rejected:
			return err
		case <-timeout.C:
			return fmt.Errorf("transport: mesh formation timed out after %v (%d/%d links up)", n.cfg.formTimeout(), up, want)
		}
	}
	if n.cfg.Resume {
		n.cfg.logf("node %d mesh resumed (%d peers)", n.cfg.ID, want)
	} else {
		n.cfg.logf("node %d mesh complete (%d peers)", n.cfg.ID, want)
	}
	return nil
}

// linksUp counts the links that hold a live connection.
func (n *node) linksUp() int {
	up := 0
	for _, l := range n.links {
		if l == nil {
			continue
		}
		l.mu.Lock()
		if !l.down && l.conn != nil {
			up++
		}
		l.mu.Unlock()
	}
	return up
}

// signalLinkUp wakes formation after a link came up.
func (n *node) signalLinkUp() {
	select {
	case n.linkUp <- struct{}{}:
	default:
	}
}

// reject reports a peer's refusal of a dialer-side link. A connect loop
// ends at its reject and a link starts one only when none is running,
// so the buffer of one per peer never fills.
func (n *node) reject(err error) {
	select {
	case n.rejected <- err:
	default:
	}
}

// rendezvous publishes this node's bound address in the shared
// directory and polls for every other node's file. Address files embed
// the run fingerprint, so entries left behind by an earlier run in the
// same directory (or by this node's own previous incarnation under a
// different configuration) are ignored rather than dialed.
func (n *node) rendezvous(self string, deadline time.Time) error {
	tmp := filepath.Join(n.cfg.AddrDir, fmt.Sprintf(".%d.addr.tmp", n.cfg.ID))
	if err := os.WriteFile(tmp, []byte(fmt.Sprintf("%016x %s", n.fp, self)), 0o644); err != nil {
		return fmt.Errorf("transport: rendezvous publish: %w", err)
	}
	final := filepath.Join(n.cfg.AddrDir, fmt.Sprintf("%d.addr", n.cfg.ID))
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("transport: rendezvous publish: %w", err)
	}
	published := make([]bool, n.cfg.Population)
	published[n.cfg.ID] = true
	for missing := n.cfg.Population - 1; missing > 0; {
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: rendezvous: %d peers unpublished after %v", missing, n.cfg.formTimeout())
		}
		for id := range published {
			if published[id] {
				continue
			}
			if _, err := n.peerAddr(id); err != nil {
				continue // unpublished, or a stale entry from another run
			}
			published[id] = true
			missing--
		}
		if missing > 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// parseAddrFile decodes one rendezvous entry ("%016x %s": fingerprint
// then address) and reports whether it belongs to this run.
func parseAddrFile(b []byte, fp uint64) (string, bool) {
	s := string(b)
	i := strings.IndexByte(s, ' ')
	if i != 16 {
		return "", false
	}
	got, err := strconv.ParseUint(s[:16], 16, 64)
	if err != nil || got != fp {
		return "", false
	}
	addr := s[17:]
	if addr == "" {
		return "", false
	}
	return addr, true
}

// acceptLoop accepts inbound connections for the life of the node: the
// resume handshakes of higher-id peers joining the mesh or reconnecting.
func (n *node) acceptLoop() {
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			if n.stopped() || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept failure (e.g. an injected listener
			// refusal): keep serving.
			time.Sleep(time.Millisecond)
			continue
		}
		go n.handleInbound(conn)
	}
}

// handleInbound serves the acceptor side of the link handshake on one
// inbound connection. A resume that does not match this node's run —
// another mesh version, an id outside the dialer range, another
// population or configuration fingerprint — is answered with a reject
// naming the reason and changes nothing here: a stray dialer cannot
// disturb a forming or running mesh.
func (n *node) handleInbound(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(n.cfg.EpochTimeout))
	frame, err := wire.ReadFrame(conn)
	if err != nil || len(frame) == 0 || frame[0] != mtResume {
		conn.Close()
		return
	}
	r, err := parseResume(frame[1:])
	reason := ""
	switch {
	case err != nil:
		reason = err.Error()
	case r.ID <= n.cfg.ID || r.ID >= n.cfg.Population:
		reason = fmt.Sprintf("id %d out of dialer range", r.ID)
	case r.Population != n.cfg.Population:
		reason = fmt.Sprintf("population %d, want %d", r.Population, n.cfg.Population)
	case r.Fingerprint != n.fp:
		reason = "run configuration fingerprint mismatch"
	default:
		reason = n.links[r.ID].handleResume(conn, r)
	}
	if reason != "" {
		wire.WriteFrame(conn, marshalReject(reason))
		conn.Close()
	}
}

// epochEnv adapts one epoch of the mesh to core.Env: the inbox holds
// the previous epoch's payloads (ascending sender id, per-sender FIFO —
// the simulator's delivery order), sends go out tagged with the current
// epoch, and peer sampling comes from the engine-equivalent Sampler.
type epochEnv struct {
	n       *node
	epoch   int
	inbox   []p2p.Message
	sendErr error
}

func (e *epochEnv) ID() p2p.NodeID       { return p2p.NodeID(e.n.cfg.ID) }
func (e *epochEnv) Cycle() int           { return e.epoch }
func (e *epochEnv) AliveCount() int      { return e.n.cfg.Population }
func (e *epochEnv) Inbox() []p2p.Message { return e.inbox }
func (e *epochEnv) RandomPeer() (p2p.NodeID, bool) {
	return e.n.sampler.RandomPeer()
}

// Send encodes the data frame immediately (the participant may reuse
// its buffers after Send returns) into the node's scratch, and hands it
// to the peer's supervised link, which copies it once, into the
// retransmit-ring entry it keeps. A down link absorbs the frame into its
// ring.
func (e *epochEnv) Send(to p2p.NodeID, payload any, bytes int) error {
	l := e.n.links[int(to)]
	if l == nil {
		return fmt.Errorf("transport: send to unknown peer %d", to)
	}
	buf, mark := beginData(e.n.sendBuf[:0], e.epoch)
	buf, err := e.n.core.AppendPayload(buf, payload)
	if err != nil {
		e.sendErr = err
		return err
	}
	e.n.sendBuf = wire.EndField(buf, mark)
	if err := l.send(e.epoch, e.n.sendBuf); err != nil {
		e.sendErr = err
		return err
	}
	return nil
}

// runEpochs drives the coordinator-free epoch clock until the whole
// population has terminated. Epoch e of the mesh is cycle e of the
// simulation contract: payloads sent at e are stepped at e+1. Each pass
// waits at the barrier of the epoch stepped last, then steps the next,
// so a node resumed from a checkpoint enters the loop as a running one
// passes through it.
func (n *node) runEpochs() error {
	limit := n.core.MaxCycles()
	every := n.cfg.checkpointEvery()
	for epoch := n.startEpoch; ; epoch++ {
		if epoch > 0 {
			allDone, err := n.awaitBarrier(epoch-1, n.core.Done())
			if err != nil {
				return err
			}
			n.pruneRings(epoch - 1)
			if allDone {
				return n.finishRun(epoch - 1)
			}
			if every > 0 && epoch%every == 0 {
				if err := n.writeCheckpoint(epoch); err != nil {
					return err
				}
			}
		}
		if epoch == limit {
			return fmt.Errorf("transport: no termination within %d epochs", limit)
		}
		if n.interrupted() {
			return n.shutdown(epoch)
		}

		for id, tk := range n.ticks[epoch-1] {
			n.consumed[id] = tk.seq
		}
		delete(n.ticks, epoch-1)
		inbox, err := n.buildInbox(n.pendingData[epoch-1])
		if err != nil {
			return err
		}
		delete(n.pendingData, epoch-1)

		env := &epochEnv{n: n, epoch: epoch, inbox: inbox}
		n.core.Step(env)
		if env.sendErr != nil {
			return env.sendErr
		}

		done := n.core.Done()
		for _, l := range n.links {
			if l == nil {
				continue
			}
			if err := l.send(epoch, marshalTick(epoch, done)); err != nil {
				return fmt.Errorf("transport: tick broadcast: %w", err)
			}
		}
	}
}

// shutdown performs a graceful interrupt exit, the core having stepped
// every epoch before nextEpoch: final checkpoint (when configured), bye
// to every peer, ErrInterrupted to the caller.
func (n *node) shutdown(nextEpoch int) error {
	var ckErr error
	if n.cfg.CheckpointDir != "" {
		ckErr = n.writeCheckpoint(nextEpoch)
	}
	for _, l := range n.links {
		if l != nil {
			l.sendBye()
		}
	}
	n.cfg.logf("node %d interrupted before epoch %d", n.cfg.ID, nextEpoch)
	if ckErr != nil {
		return fmt.Errorf("%w (checkpoint failed: %v)", ErrInterrupted, ckErr)
	}
	return ErrInterrupted
}

// finishRun broadcasts the orderly leave after the whole population
// disclosed its final iteration.
func (n *node) finishRun(epoch int) error {
	n.cfg.logf("node %d terminated at epoch %d", n.cfg.ID, epoch)
	for _, l := range n.links {
		if l != nil {
			l.sendBye()
		}
	}
	return nil
}

// pruneRings drops retransmit-ring frames old enough that every peer —
// including one resuming from its oldest possible checkpoint — provably
// received them. While a peer is down the barrier stalls, so epochs
// stop advancing and pruning naturally pauses with them.
func (n *node) pruneRings(epoch int) {
	before := epoch - n.cfg.ringRetention()
	if before <= 0 {
		return
	}
	for _, l := range n.links {
		if l != nil {
			l.prune(before)
		}
	}
}

// awaitBarrier blocks until every peer's tick for the given epoch has
// arrived, buffering any messages for later epochs. It reports whether
// the entire population (peers and self) has terminated. Epoch traffic
// that arrived while this node was still in the key ceremony (backlog)
// is replayed first, preserving per-sender FIFO order. An interrupt
// here shuts the node down with the epoch stepped.
//
// The barrier outlasts the epoch timeout as long as a down link is still
// within its grace window (a recovering peer also gets a fresh epoch
// timeout from the moment its link resumes); when the barrier finally
// fails, the error names every peer whose tick is missing and the state
// of its link.
func (n *node) awaitBarrier(epoch int, selfDone bool) (bool, error) {
	timeout := time.NewTimer(n.cfg.EpochTimeout)
	defer timeout.Stop()
	for len(n.ticks[epoch]) < n.cfg.Population-1 {
		var m inMsg
		if len(n.backlog) > 0 {
			m = n.backlog[0]
			n.backlog = n.backlog[1:]
		} else {
			select {
			case m = <-n.in:
			case <-n.cfg.Interrupt:
				return false, n.shutdown(epoch + 1)
			case err := <-n.rejected:
				return false, err
			case <-timeout.C:
				wait, state := n.barrierState(epoch)
				if wait {
					timeout.Reset(gracePollInterval)
					continue
				}
				return false, fmt.Errorf("transport: epoch %d barrier timed out after %v (%d/%d ticks); %s", epoch, n.cfg.EpochTimeout, len(n.ticks[epoch]), n.cfg.Population-1, state)
			}
		}
		if m.err != nil {
			return false, fmt.Errorf("transport: peer %d connection failed at epoch %d: %w", m.from, epoch, m.err)
		}
		switch m.kind {
		case mtTick:
			if m.epoch < epoch {
				return false, fmt.Errorf("transport: peer %d re-ticked past epoch %d", m.from, m.epoch)
			}
			if err := n.refuseAhead(m, epoch); err != nil {
				return false, err
			}
			et := n.ticks[m.epoch]
			if et == nil {
				et = make(map[int]tick, n.cfg.Population-1)
				n.ticks[m.epoch] = et
			}
			et[m.from] = tick{seq: m.seq, done: m.done}
		case mtData:
			if m.epoch < epoch {
				return false, fmt.Errorf("transport: peer %d sent stale data for epoch %d at barrier %d", m.from, m.epoch, epoch)
			}
			if err := n.refuseAhead(m, epoch); err != nil {
				return false, err
			}
			ed := n.pendingData[m.epoch]
			if ed == nil {
				ed = map[int][][]byte{}
				n.pendingData[m.epoch] = ed
			}
			ed[m.from] = append(ed[m.from], m.payload)
		case mtBye:
			// A leave is orderly only once a barrier shows the whole
			// population done. A bye before the peer's tick is an
			// interrupted peer that may come back: its link goes down,
			// and the barrier waits for it as for any down link.
			n.left[m.from] = true
			if _, ticked := n.ticks[epoch][m.from]; !ticked {
				n.links[m.from].dropLeft()
			}
		case mtKey:
			return false, fmt.Errorf("transport: peer %d sent a key-ceremony frame at epoch %d", m.from, epoch)
		}
	}
	allDone := selfDone
	for _, tk := range n.ticks[epoch] {
		allDone = allDone && tk.done
	}
	if !allDone {
		// The run goes on, so a peer that said bye after its tick was
		// interrupted too.
		for id := range n.left {
			n.links[id].dropLeft()
		}
	}
	return allDone, nil
}

// refuseAhead refuses a tick or data frame for an epoch more than
// ringRetention() past the barrier, before it is filed: an honest peer
// is furthest ahead when this node resumed from the older of its two
// checkpoint slots (the newest torn), about 2·every+2 epochs back, which
// ringRetention() covers, and no ring keeps older frames, while a
// hostile epoch tag would grow the barrier buffers until the epoch
// timeout. The barrier of the key ceremony is epoch 0.
func (n *node) refuseAhead(m inMsg, barrier int) error {
	if m.epoch > barrier+n.cfg.ringRetention() {
		return fmt.Errorf("transport: peer %d sent epoch %d at barrier %d, more than %d epochs ahead", m.from, m.epoch, barrier, n.cfg.ringRetention())
	}
	return nil
}

// barrierState decides whether a timed-out barrier should keep waiting
// and describes the missing peers' link states for the failure
// diagnostic either way.
func (n *node) barrierState(epoch int) (wait bool, state string) {
	now := time.Now()
	var missing []string
	for id, l := range n.links {
		if l == nil {
			continue
		}
		down, since, lastResume := l.state()
		_, ticked := n.ticks[epoch][id]
		if down {
			// A down link within its grace window explains any missing
			// tick — including ticks from healthy peers that are
			// themselves parked waiting for the same down peer.
			if now.Sub(since) < n.cfg.Grace {
				wait = true
			}
			if !ticked {
				missing = append(missing, fmt.Sprintf("peer %d (link down %v)", id, now.Sub(since).Round(time.Millisecond)))
			}
			continue
		}
		if !ticked {
			// A recently resumed link gets a fresh epoch timeout: its
			// backlog replay and catch-up stepping take time.
			if !lastResume.IsZero() && now.Sub(lastResume) < n.cfg.EpochTimeout {
				wait = true
			}
			missing = append(missing, fmt.Sprintf("peer %d (link up)", id))
		}
	}
	if len(missing) == 0 {
		return wait, "no ticks missing"
	}
	return wait, "missing ticks from: " + strings.Join(missing, ", ")
}

// buildInbox decodes one epoch's buffered payloads into the simulator's
// delivery order: ascending sender id, per-sender arrival (FIFO) order.
func (n *node) buildInbox(bySender map[int][][]byte) ([]p2p.Message, error) {
	if len(bySender) == 0 {
		return nil, nil
	}
	senders := make([]int, 0, len(bySender))
	for from := range bySender {
		senders = append(senders, from)
	}
	sort.Ints(senders)
	var inbox []p2p.Message
	for _, from := range senders {
		for _, raw := range bySender[from] {
			payload, err := n.core.DecodePayload(raw)
			if err != nil {
				return nil, fmt.Errorf("transport: bad payload from peer %d: %w", from, err)
			}
			inbox = append(inbox, p2p.Message{From: p2p.NodeID(from), Payload: payload, Bytes: len(raw)})
		}
	}
	return inbox, nil
}
