// Package transport runs Chiaroscuro participants as real networked
// processes: TCP connections carrying the internal/wire artifact format
// inside length-prefixed frames, one link handshake (a join is a resume
// from sequence 0) and a leave notice, and a coordinator-free epoch
// clock that reproduces the simulation engines' message-visibility
// discipline. The participant logic itself is internal/core's — the
// daemon and the in-process engines share one protocol implementation,
// which is what lets the conformance harness
// (internal/transport/conformance) demand bit-identical disclosed
// trajectories across the process boundary.
//
// The epoch clock works without any coordinator: after stepping its
// participant at epoch e, every node broadcasts a tick(e) to all peers
// and enters epoch e+1 only once it holds a tick(e) from everyone.
// Because each link delivers in order — a TCP connection does, and the
// link's sequence numbers and retransmit ring keep it so across
// reconnects (supervisor.go) — a peer's tick(e) guarantees all of that
// peer's epoch-e payloads have already arrived: the barrier needs no
// payload counts. Epoch e of the mesh corresponds exactly to cycle e of
// the simulation: messages sent at e become visible at e+1, and each
// node's inbox is ordered by ascending sender id with per-sender FIFO,
// the simulator's contract.
package transport

import (
	"errors"
	"fmt"
	"net"
	"time"
)

// Config configures one transport node (one participant process).
type Config struct {
	// ID is this node's participant id, in [0, Population).
	ID int
	// Population is the total number of nodes in the run.
	Population int
	// Listen is the TCP listen address (host:0 picks a free port).
	Listen string
	// Peers, when non-empty, lists every node's dial address indexed by
	// id (the entry at ID is ignored). Exactly one of Peers and AddrDir
	// must be set.
	Peers []string
	// AddrDir, when non-empty, is a shared rendezvous directory: each
	// node writes "<id>.addr" with its bound address and polls for the
	// others — how the loopback harness wires a mesh of :0 listeners.
	AddrDir string
	// EpochTimeout bounds how long a node waits at one epoch barrier
	// for the slowest peer tick before declaring the mesh wedged. It
	// also bounds one write on a peer link (an epoch's frames for that
	// peer go out together), so a dead peer with a full socket buffer
	// cannot block the sender forever.
	EpochTimeout time.Duration
	// Logf, when non-nil, receives progress lines (epoch transitions,
	// handshake results). Nil discards them.
	Logf func(format string, args ...any)

	// Grace is how long beyond EpochTimeout an epoch barrier keeps
	// waiting for a peer whose link is down, or who said bye before
	// ticking: it waits as long as that link has been down for less than
	// Grace. Every link is supervised whatever Grace says — a read or
	// write error marks it down and the dialer side redials with
	// deterministic capped backoff and resumes — so Grace only sets the
	// barrier's extra patience (zero: none). It also lengthens the mesh
	// formation deadline and the links' idle-read deadline.
	Grace time.Duration
	// CheckpointDir, when non-empty, enables epoch checkpoints: the node
	// durably writes its resumable state as of the last epoch it stepped
	// (core snapshot, sampler RNG, per-link sequence numbers, the last
	// frame it consumed from each peer, retransmit rings) to "<id>.ckpt"
	// in this directory every CheckpointEvery epochs, and on
	// interruption. The file has two checksummed slots,
	// each checkpoint overwrites the older one in place, and resume takes
	// the newest valid slot, so a crash mid-write loses at most the
	// checkpoint being written.
	CheckpointDir string
	// CheckpointEvery is the epoch interval between checkpoints. Zero
	// defaults to 1 (every epoch) when CheckpointDir is set.
	CheckpointEvery int
	// Resume makes the node restore from the checkpoint in CheckpointDir
	// instead of starting fresh: it reconnects to the surviving peers
	// with a resume handshake, which has them retransmit every frame
	// after the ones it consumed, and rejoins the mesh at the barrier of
	// the epoch it last stepped.
	Resume bool
	// Interrupt, when non-nil, requests a graceful shutdown when it
	// becomes readable: the node writes a final checkpoint (if
	// configured), sends bye, and returns ErrInterrupted.
	Interrupt <-chan struct{}
	// Dialer, when non-nil, replaces net.DialTimeout for peer
	// connections — the hook the chaos harness uses to inject faulty
	// links. Nil uses the real dialer.
	Dialer func(network, addr string, timeout time.Duration) (net.Conn, error)
	// Listener, when non-nil, replaces net.Listen — the accept-side
	// chaos hook. Nil uses the real listener.
	Listener func(network, addr string) (net.Listener, error)
}

// Validate checks the transport configuration, returning the first
// problem found. Error texts are pinned by TestTransportConfigErrors.
func (c *Config) Validate() error {
	if c.Population < 2 {
		return errors.New("transport: population must be at least 2")
	}
	if c.ID < 0 || c.ID >= c.Population {
		return fmt.Errorf("transport: node id %d outside population [0, %d)", c.ID, c.Population)
	}
	if c.Listen == "" {
		return errors.New("transport: listen address is required")
	}
	if (len(c.Peers) == 0) == (c.AddrDir == "") {
		return errors.New("transport: exactly one of peer list and rendezvous dir is required")
	}
	if len(c.Peers) > 0 {
		if len(c.Peers) != c.Population {
			return fmt.Errorf("transport: peer list has %d addresses, want one per node (%d)", len(c.Peers), c.Population)
		}
		for i, addr := range c.Peers {
			if i != c.ID && addr == "" {
				return fmt.Errorf("transport: peer %d has an empty address", i)
			}
		}
	}
	if c.EpochTimeout <= 0 {
		return errors.New("transport: epoch timeout must be positive")
	}
	if c.Grace < 0 {
		return errors.New("transport: grace must not be negative")
	}
	if c.CheckpointEvery < 0 {
		return errors.New("transport: checkpoint interval must not be negative")
	}
	if c.CheckpointEvery > 0 && c.CheckpointDir == "" {
		return errors.New("transport: checkpoint interval requires a checkpoint dir")
	}
	if c.Resume && c.CheckpointDir == "" {
		return errors.New("transport: resume requires a checkpoint dir")
	}
	return nil
}

// formTimeout bounds mesh formation, rendezvous included: an epoch
// timeout, plus the grace a restarting peer may take to come back.
func (c *Config) formTimeout() time.Duration {
	return c.EpochTimeout + c.Grace
}

// ringRetention is how many epochs before the current one the
// retransmit rings keep (pruneRings): enough for a peer resuming from
// its oldest possible checkpoint.
func (c *Config) ringRetention() int {
	return 2*c.checkpointEvery() + 4
}

// checkpointEvery returns the effective checkpoint cadence in epochs,
// or 0 when checkpointing is disabled.
func (c *Config) checkpointEvery() int {
	if c.CheckpointDir == "" {
		return 0
	}
	if c.CheckpointEvery > 0 {
		return c.CheckpointEvery
	}
	return 1
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}
