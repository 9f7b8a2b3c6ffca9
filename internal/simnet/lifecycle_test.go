package simnet

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"chiaroscuro/internal/p2p"
)

// refLifecycle is the engine's former two-pass lifecycle algorithm, kept
// as the oracle of Net.Directive: a schedule pass over every node that
// latches scheduler-ordered outages and their resets, then a churn pass
// over every node, drawn from a stream seeded with the run seed + 1,
// that never revives a scheduler-downed node.
type refLifecycle struct {
	net                                   *Net // only its pure schedule is read
	alive, schedDown, schedReset, stalled []bool
	churn                                 *rand.Rand
}

// refStep is one node's observable lifecycle at one cycle.
type refStep struct {
	down, stall, reset bool
}

func newRefLifecycle(t *testing.T, plan *Plan, n int, runSeed int64) *refLifecycle {
	t.Helper()
	net, err := NewNet(plan, n, runSeed)
	if err != nil {
		t.Fatal(err)
	}
	r := &refLifecycle{
		net:        net,
		alive:      make([]bool, n),
		schedDown:  make([]bool, n),
		schedReset: make([]bool, n),
		stalled:    make([]bool, n),
	}
	for i := range r.alive {
		r.alive[i] = true
	}
	if plan.churn.active() {
		r.churn = rand.New(rand.NewSource(runSeed + 1))
	}
	return r
}

func (r *refLifecycle) cycle(c int) []refStep {
	out := make([]refStep, len(r.alive))
	for i := range r.alive {
		d := r.net.schedule(p2p.NodeID(i), c)
		if d.Down {
			if r.alive[i] {
				r.alive[i], r.stalled[i] = false, false
			}
			r.schedDown[i] = true
			if d.Reset {
				r.schedReset[i] = true
			}
		} else if r.schedDown[i] {
			r.schedDown[i] = false
			if !r.alive[i] {
				r.alive[i] = true
				out[i].reset = d.Reset || r.schedReset[i]
			}
			r.schedReset[i] = false
		}
		r.stalled[i] = r.alive[i] && d.Stall
	}
	if r.churn != nil {
		ch := r.net.plan.churn
		for i := range r.alive {
			if r.alive[i] {
				if r.churn.Float64() < ch.crash {
					r.alive[i], r.stalled[i] = false, false
				}
			} else if r.churn.Float64() < ch.rejoin && !r.schedDown[i] {
				r.alive[i] = true
			}
		}
	}
	for i := range out {
		out[i].down, out[i].stall = !r.alive[i], r.stalled[i]
	}
	return out
}

// randomLifecycleSpec draws a scenario mixing crash, outage (with and
// without :reset), lag and churn clauses over n nodes and the given
// horizon, including :reset outages swallowed by a longer state-kept
// one (whose revival needs the latched Reset).
func randomLifecycleSpec(rng *rand.Rand, n, horizon int) string {
	var clauses []string
	for range 2 + rng.Intn(8) {
		at, dur, id := rng.Intn(horizon), 1+rng.Intn(horizon/5), rng.Intn(n)
		switch rng.Intn(6) {
		case 5:
			clauses = append(clauses, fmt.Sprintf("outage@%d+%d=%d:reset", at, dur, id),
				fmt.Sprintf("outage@%d+%d=%d", at, dur+1+rng.Intn(10), id))
		case 0:
			clauses = append(clauses, fmt.Sprintf("crash@%d=%d", at, id))
		case 1:
			clauses = append(clauses, fmt.Sprintf("outage@%d+%d=%d", at, dur, id))
		case 2:
			clauses = append(clauses, fmt.Sprintf("outage@%d+%d=%d:reset", at, dur, id))
		default:
			clauses = append(clauses, fmt.Sprintf("lag@%d+%d=%d", at, dur, id))
		}
	}
	if rng.Intn(4) != 0 {
		clauses = append(clauses, fmt.Sprintf("churn=%.2f/%.2f", 0.3*rng.Float64(), rng.Float64()))
	}
	rng.Shuffle(len(clauses), func(i, j int) { clauses[i], clauses[j] = clauses[j], clauses[i] })
	return strings.Join(clauses, ";")
}

// TestDirectiveMatchesTwoPassReference holds Net.Directive, one call per
// node per cycle in id order, to the former two-pass algorithm: over
// random plans mixing every lifecycle clause, each node's Down, Stall
// and revival Reset must agree at every cycle, churn draws included.
func TestDirectiveMatchesTwoPassReference(t *testing.T) {
	const n, horizon, plans = 12, 300, 60
	var crashes, rejoins, resets, latched, revivedThenCrashed, stalls int
	for seed := int64(1); seed <= plans; seed++ {
		spec := randomLifecycleSpec(rand.New(rand.NewSource(seed)), n, horizon)
		plan, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		runSeed := 1000 + 7*seed
		ref := newRefLifecycle(t, plan, n, runSeed)
		net, err := NewNet(plan, n, runSeed)
		if err != nil {
			t.Fatal(err)
		}
		prev := make([]refStep, n)
		for c := range horizon {
			want := ref.cycle(c)
			for id := range n {
				d := net.Directive(p2p.NodeID(id), c)
				got := refStep{down: d.Down, stall: d.Stall, reset: d.Reset}
				if got != want[id] {
					t.Fatalf("plan %q seed %d: node %d cycle %d: directive %+v, reference %+v", spec, runSeed, id, c, got, want[id])
				}
				if got.reset && !net.schedule(p2p.NodeID(id), c).Reset {
					latched++
				}
				switch {
				case got.reset && got.down:
					revivedThenCrashed++
				case got.reset:
					resets++
				case got.stall:
					stalls++
				case got.down && !prev[id].down:
					crashes++
				case !got.down && prev[id].down:
					rejoins++
				}
			}
			prev = want
		}
	}
	t.Logf("crashes %d, rejoins %d, resets %d (%d latched), revived then crashed %d, stalls %d",
		crashes, rejoins, resets, latched, revivedThenCrashed, stalls)
	if crashes == 0 || rejoins == 0 || resets == 0 || latched == 0 || revivedThenCrashed == 0 || stalls == 0 {
		t.Fatal("the random plans left a lifecycle transition unexercised")
	}
}
