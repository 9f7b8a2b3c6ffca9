package core

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"chiaroscuro/internal/compactrng"
	"chiaroscuro/internal/p2p"
)

// RunAsync executes the protocol with one goroutine per participant and
// channel-based message passing — genuine concurrency with no global
// synchronization, which is the deployment model the paper targets
// ("identical for all participants, and proceeds without any global
// synchronization", Sec. II.B). Each participant advances through its
// own activations at its own pace; stragglers resynchronize through the
// iteration tags on gossip messages exactly as in the cycle-driven
// engine, because both engines run the same participant code (Env
// abstracts the runtime).
//
// Unlike Run, RunAsync is NOT deterministic: goroutine scheduling decides
// message interleavings. Protocol correctness (and the probabilistic-DP
// accounting) hold regardless; tests assert quality bounds, not exact
// values. Churn options are not supported here (use Run for fault
// experiments; this engine models the healthy concurrent deployment).
func RunAsync(data [][]float64, params Params) (*Trace, error) {
	if params.ChurnCrashProb != 0 || params.ChurnRejoinProb != 0 {
		return nil, errors.New("core: RunAsync does not support churn; use Run")
	}
	params.asyncEngine = true
	rs, err := prepareRun(data, params)
	if err != nil {
		return nil, err
	}
	defer rs.close()
	p := rs.p
	n := len(data)
	// Gossip protocols are built on *periodical* exchanges (Sec. II.A);
	// each participant activates on its own timer with ±20% jitter. The
	// jittered timers are what keeps the engine asynchronous while still
	// letting messages propagate between activations.
	interval := p.AsyncInterval
	if interval <= 0 {
		interval = 200 * time.Microsecond
	}

	net := &asyncNet{
		inboxes: make([]*asyncInbox, n),
	}
	// Bind the fault plan. The async engine has no global clock, so the
	// Conditioner and scheduler run against each participant's private
	// activation counter: link faults drop/duplicate probabilistically
	// (delays are meaningless here — channel scheduling already reorders)
	// and lifecycle faults trigger on the node's own step count.
	// Byzantine behaviours live in the participant and need no wiring.
	cond, sched, err := bindFaults(p, n)
	if err != nil {
		return nil, err
	}
	net.cond = cond
	// Generous buffering: a full iteration's worth of traffic per node.
	// Overflow is dropped and counted, like a saturated link.
	inboxCap := 4*(p.GossipRounds+2*p.DecryptThreshold) + 64
	for i := range net.inboxes {
		net.inboxes[i] = newAsyncInbox(inboxCap)
	}

	participants := make([]*participant, n)
	for i := 0; i < n; i++ {
		participants[i] = rs.newParticipant(p2p.NodeID(i))
	}

	maxSteps := 4*p.Iterations*(3+p.GossipRounds+p.DecryptWindow) + 400
	var done atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(pt *participant) {
			defer wg.Done()
			env := &asyncEnv{
				net: net,
				id:  pt.id,
				rng: compactrng.NewRand(p.Seed ^ (int64(pt.id)+7)*0x2545F4914F6CDD1D),
				// Sized to the ring: a full drain can never grow it, so
				// steady-state activations reuse this one buffer.
				drain: make([]p2p.Message, 0, inboxCap),
			}
			notified := false
			wasDown := false
			pendingReset := false
			for step := 0; ; step++ {
				select {
				case <-stop:
					return
				default:
				}
				env.step = step
				activate := true
				if sched != nil {
					d := sched.Directive(pt.id, step)
					if d.Down {
						// Crashed: discard whatever arrives, initiate
						// nothing. The activation cadence keeps ticking so
						// outage windows measured in activations elapse.
						wasDown = true
						if d.Reset {
							pendingReset = true // latched until revival
						}
						for range env.Inbox() {
						}
						activate = false
					} else {
						if wasDown {
							wasDown = false
							if d.Reset || pendingReset {
								pt.Reset()
							}
							pendingReset = false
						}
						if d.Stall {
							// Laggard: the inbox accumulates in the channel.
							activate = false
						}
					}
				}
				if activate {
					pt.step(env)
				}
				if pt.phase == phaseDone && !notified {
					notified = true
					done.Add(1)
				}
				if step >= maxSteps && !notified {
					// Hostile stall (or a scheduled permanent crash): give
					// up initiating, keep serving what the plan allows.
					notified = true
					done.Add(1)
				}
				// Periodic activation with jitter; finished participants
				// keep serving at the same cadence. Gosched first so the
				// sleep does not round up tiny intervals on coarse
				// timers.
				runtime.Gosched()
				time.Sleep(time.Duration(float64(interval) * (0.8 + 0.4*env.rng.Float64())))
			}
		}(participants[i])
	}

	// Wait for all participants to finish their iterations, with a
	// generous wall-clock safety net.
	deadline := time.After(5 * time.Minute)
	tick := time.NewTicker(200 * time.Microsecond)
	defer tick.Stop()
waitLoop:
	for {
		select {
		case <-tick.C:
			if done.Load() == int64(n) {
				break waitLoop
			}
		case <-deadline:
			break waitLoop
		}
	}
	close(stop)
	wg.Wait()

	stats := p2p.Stats{
		MessagesSent:    int(net.sent.Load()),
		MessagesDropped: int(net.dropped.Load()),
		BytesSent:       net.bytes.Load(),
		FaultDrops:      int(net.fdrops.Load()),
		Duplicates:      int(net.dups.Load()),
	}
	// "Cycles" in the async engine: the maximum number of activations any
	// participant performed is not tracked per-node; report the protocol
	// schedule length instead.
	cycles := p.Iterations * (1 + p.GossipRounds + 2)
	return buildTrace(data, p, participants, cycles, stats, rs.suite, rs.accountant)
}

// asyncInbox is one participant's fixed-capacity mailbox: a mutex-guarded
// ring of messages. It replaces the earlier per-node buffered channel —
// the channel's per-receive element churn (and the fresh slice every
// drain grew) was the async fabric's last allocation source. Capacity is
// fixed at construction; a full ring drops the incoming message, which
// the sender counts exactly like the saturated channel did.
type asyncInbox struct {
	mu   sync.Mutex
	buf  []p2p.Message
	head int // index of the oldest queued message
	n    int // queued message count
}

func newAsyncInbox(capacity int) *asyncInbox {
	return &asyncInbox{buf: make([]p2p.Message, capacity)}
}

// push enqueues m, reporting false when the ring is full.
func (ib *asyncInbox) push(m p2p.Message) bool {
	ib.mu.Lock()
	if ib.n == len(ib.buf) {
		ib.mu.Unlock()
		return false
	}
	i := ib.head + ib.n
	if i >= len(ib.buf) {
		i -= len(ib.buf)
	}
	ib.buf[i] = m
	ib.n++
	ib.mu.Unlock()
	return true
}

// drainInto appends every queued message to dst in arrival order and
// clears the vacated slots, so recycled ring capacity never pins dead
// payloads. With dst's capacity at least the ring's, it allocates
// nothing.
func (ib *asyncInbox) drainInto(dst []p2p.Message) []p2p.Message {
	ib.mu.Lock()
	for ; ib.n > 0; ib.n-- {
		dst = append(dst, ib.buf[ib.head])
		ib.buf[ib.head] = p2p.Message{}
		ib.head++
		if ib.head == len(ib.buf) {
			ib.head = 0
		}
	}
	ib.mu.Unlock()
	return dst
}

// asyncNet is the ring-buffer message fabric.
type asyncNet struct {
	inboxes []*asyncInbox
	cond    p2p.Conditioner // nil unless the fault plan conditions links
	sent    atomic.Int64
	dropped atomic.Int64
	bytes   atomic.Int64
	fdrops  atomic.Int64
	dups    atomic.Int64
}

// asyncEnv implements Env for one participant goroutine.
type asyncEnv struct {
	net  *asyncNet
	id   p2p.NodeID
	rng  *rand.Rand
	step int
	// drain is the reusable Inbox buffer, pre-sized to the ring capacity.
	drain []p2p.Message
}

// ID implements Env.
func (e *asyncEnv) ID() p2p.NodeID { return e.id }

// Cycle implements Env: the participant's own activation counter (there
// is no global clock).
func (e *asyncEnv) Cycle() int { return e.step }

// PopulationSize implements Env.
func (e *asyncEnv) PopulationSize() int { return len(e.net.inboxes) }

// AliveCount implements Env: everyone is alive in this engine.
func (e *asyncEnv) AliveCount() int { return len(e.net.inboxes) }

// Inbox implements Env: drains whatever has arrived so far into the
// env's reusable buffer (valid until the next Inbox call — exactly the
// lifetime participant.step needs).
func (e *asyncEnv) Inbox() []p2p.Message {
	e.drain = e.net.inboxes[e.id].drainInto(e.drain[:0])
	return e.drain
}

// Send implements Env: non-blocking delivery; a full inbox drops the
// message (a saturated peer), which push-sum absorbs as mass loss. A
// bound fault plan additionally drops or duplicates messages (delays
// are left to the channel scheduling this engine already has).
func (e *asyncEnv) Send(to p2p.NodeID, payload any, bytes int) error {
	if to < 0 || int(to) >= len(e.net.inboxes) {
		return errors.New("core: async send out of range")
	}
	e.net.sent.Add(1)
	e.net.bytes.Add(int64(bytes))
	copies := 1
	if e.net.cond != nil {
		v := e.net.cond.Condition(e.id, to, e.step, bytes)
		if v.Drop {
			e.net.fdrops.Add(1)
			e.net.dropped.Add(1)
			return nil
		}
		if v.Duplicate {
			e.net.dups.Add(1)
			copies = 2
		}
	}
	for c := 0; c < copies; c++ {
		if !e.net.inboxes[to].push(p2p.Message{From: e.id, Payload: payload, Bytes: bytes}) {
			e.net.dropped.Add(1)
		}
	}
	return nil
}

// RandomPeer implements Env.
func (e *asyncEnv) RandomPeer() (p2p.NodeID, bool) {
	n := len(e.net.inboxes)
	if n < 2 {
		return -1, false
	}
	j := e.rng.Intn(n - 1)
	if j >= int(e.id) {
		j++
	}
	return p2p.NodeID(j), true
}

var _ Env = (*asyncEnv)(nil)
