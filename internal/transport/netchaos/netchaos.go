// Package netchaos injects deterministic network faults underneath the
// transport layer: connection resets, read/write stalls, partial
// writes, and listener refusals, all driven by a compact scenario
// string and a seed. The transport's supervision (sequence numbers,
// retransmit rings, resume handshake, grace windows) must absorb every
// scenario without changing the disclosed clustering trajectories —
// which is exactly what the chaos conformance tests assert.
//
// Scenario grammar — comma-separated directives:
//
//	reset@N[:M]   close each connection after ~N successful writes,
//	              at most M resets across the whole process (default 1);
//	              the budget guarantees the run eventually progresses
//	stall@N:DUR   pause DUR before a connection's Nth write
//	rstall@N:DUR  pause DUR before a connection's Nth read
//	partial       split every multi-byte write into two syscalls
//	refuse@L      drop the first L inbound connections at the listener
//
// The exact operation hit by reset/stall is jittered per connection
// from the seed (within [N, 2N)), so repeated connections do not fail
// in lockstep; the schedule is a pure function of (scenario, seed,
// direction, index), where the index counts the plan's dialled
// connections in dial order or its accepted ones in accept order —
// separately, because a process that both dials and listens (every
// daemon) interleaves the two as its goroutines happen to be scheduled.
//
// A plan counts what it injected (Net.Injected), so a test that relies
// on a fault can check that the fault happened.
package netchaos

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// rule is one parsed directive.
type rule struct {
	kind   string // "reset", "stall", "rstall", "partial", "refuse"
	n      int
	budget int
	dur    time.Duration
}

// Net is one process's chaos plan: wrap dials and listens through it.
type Net struct {
	seed  int64
	rules []rule

	mu          sync.Mutex
	dialled     int // connections wrapped by Dial
	accepted    int // connections wrapped by a listener's Accept
	resetBudget int
	refuseLeft  int

	resets, stalls, splits atomic.Int64
}

// Stats is what a plan has injected so far.
type Stats struct {
	Resets int // connections closed by a reset directive
	Stalls int // read and write pauses
	Splits int // writes split in two by partial
}

func (s Stats) String() string {
	return fmt.Sprintf("%d resets, %d stalls, %d split writes", s.Resets, s.Stalls, s.Splits)
}

// Injected returns the faults injected so far, over all of the plan's
// connections.
func (c *Net) Injected() Stats {
	return Stats{Resets: int(c.resets.Load()), Stalls: int(c.stalls.Load()), Splits: int(c.splits.Load())}
}

// New parses a scenario string into a chaos plan.
func New(scenario string, seed int64) (*Net, error) {
	rules, err := Parse(scenario)
	if err != nil {
		return nil, err
	}
	c := &Net{seed: seed, rules: rules}
	for _, r := range rules {
		switch r.kind {
		case "reset":
			c.resetBudget += r.budget
		case "refuse":
			c.refuseLeft += r.n
		}
	}
	return c, nil
}

// Parse validates a scenario string. Exposed (and fuzzed) separately so
// flag validation can fail fast without building a plan.
func Parse(scenario string) ([]rule, error) {
	if strings.TrimSpace(scenario) == "" {
		return nil, errors.New("netchaos: empty scenario")
	}
	var rules []rule
	for _, part := range strings.Split(scenario, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, errors.New("netchaos: empty directive")
		}
		if part == "partial" {
			rules = append(rules, rule{kind: "partial"})
			continue
		}
		name, rest, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("netchaos: directive %q: want name@args", part)
		}
		switch name {
		case "reset":
			nStr, mStr, hasBudget := strings.Cut(rest, ":")
			n, err := parseCount(nStr)
			if err != nil {
				return nil, fmt.Errorf("netchaos: reset count: %w", err)
			}
			budget := 1
			if hasBudget {
				if budget, err = parseCount(mStr); err != nil {
					return nil, fmt.Errorf("netchaos: reset budget: %w", err)
				}
			}
			rules = append(rules, rule{kind: "reset", n: n, budget: budget})
		case "stall", "rstall":
			nStr, dStr, ok := strings.Cut(rest, ":")
			if !ok {
				return nil, fmt.Errorf("netchaos: %s: want %s@N:duration", name, name)
			}
			n, err := parseCount(nStr)
			if err != nil {
				return nil, fmt.Errorf("netchaos: %s count: %w", name, err)
			}
			dur, err := time.ParseDuration(dStr)
			if err != nil || dur <= 0 || dur > time.Minute {
				return nil, fmt.Errorf("netchaos: %s duration %q out of (0, 1m]", name, dStr)
			}
			rules = append(rules, rule{kind: name, n: n, dur: dur})
		case "refuse":
			n, err := parseCount(rest)
			if err != nil {
				return nil, fmt.Errorf("netchaos: refuse count: %w", err)
			}
			rules = append(rules, rule{kind: "refuse", n: n})
		default:
			return nil, fmt.Errorf("netchaos: unknown directive %q", name)
		}
	}
	return rules, nil
}

func parseCount(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad count %q", s)
	}
	if n < 1 || n > 1<<20 {
		return 0, fmt.Errorf("count %d out of [1, 2^20]", n)
	}
	return n, nil
}

// splitmix is the same 64-bit finalizer the transport's backoff jitter
// uses: one round is enough to decorrelate adjacent connection indexes.
func splitmix(v uint64) uint64 {
	v += 0x9E3779B97F4A7C15
	v = (v ^ (v >> 30)) * 0xBF58476D1CE4E5B9
	v = (v ^ (v >> 27)) * 0x94D049BB133111EB
	return v ^ (v >> 31)
}

// jitter maps a directive threshold into [n, 2n) deterministically for
// one (seed, connIndex, rule) triple.
func (c *Net) jitter(connIndex, ruleIndex, n int) int {
	h := splitmix(uint64(c.seed) ^ uint64(connIndex)<<20 ^ uint64(ruleIndex)<<40)
	return n + int(h%uint64(n))
}

// Dial opens a real connection and wraps it with this plan's faults —
// the transport Config.Dialer hook.
func (c *Net) Dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return c.wrap(conn, false), nil
}

// Listen opens a real listener whose accepted connections are wrapped —
// the transport Config.Listener hook. The refuse budget drops inbound
// connections before the transport ever sees them.
func (c *Net) Listen(network, addr string) (net.Listener, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return &listener{Listener: ln, net: c}, nil
}

// wrap gives inner the faults of the next connection of its direction.
// Dialled connections take the even jitter indexes and accepted ones
// the odd, so neither direction's schedule depends on the other's pace.
func (c *Net) wrap(inner net.Conn, accepted bool) net.Conn {
	c.mu.Lock()
	idx := 2 * c.dialled
	if accepted {
		idx = 2*c.accepted + 1
		c.accepted++
	} else {
		c.dialled++
	}
	c.mu.Unlock()
	w := &conn{Conn: inner, net: c, resetAt: -1, stallAt: -1, rstallAt: -1}
	for i, r := range c.rules {
		switch r.kind {
		case "reset":
			w.resetAt = c.jitter(idx, i, r.n)
		case "stall":
			w.stallAt = c.jitter(idx, i, r.n)
			w.stallDur = r.dur
		case "rstall":
			w.rstallAt = c.jitter(idx, i, r.n)
			w.rstallDur = r.dur
		case "partial":
			w.partial = true
		}
	}
	return w
}

// takeReset consumes one unit of the process-wide reset budget.
func (c *Net) takeReset() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.resetBudget <= 0 {
		return false
	}
	c.resetBudget--
	return true
}

func (c *Net) takeRefuse() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.refuseLeft <= 0 {
		return false
	}
	c.refuseLeft--
	return true
}

type listener struct {
	net.Listener
	net *Net
}

func (l *listener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if l.net.takeRefuse() {
			// Model a refused connection: the dialer sees an immediate
			// close and retries.
			conn.Close()
			continue
		}
		return l.net.wrap(conn, true), nil
	}
}

// errReset is what a chaos-closed connection reports to its own user;
// the remote side sees a plain close.
var errReset = errors.New("netchaos: injected connection reset")

type conn struct {
	net.Conn
	net *Net

	mu        sync.Mutex
	reads     int
	writes    int
	resetAt   int // write count that triggers a reset; -1 = never
	stallAt   int
	stallDur  time.Duration
	rstallAt  int
	rstallDur time.Duration
	partial   bool
	dead      bool
}

func (w *conn) Write(b []byte) (int, error) {
	w.mu.Lock()
	w.writes++
	cnt := w.writes
	if w.dead {
		w.mu.Unlock()
		return 0, errReset
	}
	stall := time.Duration(0)
	if cnt == w.stallAt {
		stall = w.stallDur
	}
	reset := cnt == w.resetAt && w.net.takeReset()
	if reset {
		w.dead = true
	}
	w.mu.Unlock()
	if stall > 0 {
		w.net.stalls.Add(1)
		time.Sleep(stall)
	}
	if reset {
		w.net.resets.Add(1)
		w.Conn.Close()
		return 0, errReset
	}
	if w.partial && len(b) > 1 {
		w.net.splits.Add(1)
		half := len(b) / 2
		n1, err := w.Conn.Write(b[:half])
		if err != nil {
			return n1, err
		}
		n2, err := w.Conn.Write(b[half:])
		return n1 + n2, err
	}
	return w.Conn.Write(b)
}

func (w *conn) Read(b []byte) (int, error) {
	w.mu.Lock()
	w.reads++
	cnt := w.reads
	if w.dead {
		w.mu.Unlock()
		return 0, errReset
	}
	stall := time.Duration(0)
	if cnt == w.rstallAt {
		stall = w.rstallDur
	}
	w.mu.Unlock()
	if stall > 0 {
		w.net.stalls.Add(1)
		time.Sleep(stall)
	}
	return w.Conn.Read(b)
}
