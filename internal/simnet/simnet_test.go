package simnet

import (
	"reflect"
	"testing"

	"chiaroscuro/internal/p2p"
)

func TestParsePlanRoundTrip(t *testing.T) {
	specs := []string{
		"",
		"drop=0.05",
		"seed=42;drop=0.1;dup=0.02;delay=0.25x3",
		"crash@10=3",
		"outage@5+8=1:reset",
		"outage@5+8=2",
		"lag@0+4=7",
		"garble=0;malform=1;replay=2;noise*50=3",
		"drop=0.05;delay=0.2x3;outage@10+8=1:reset;outage@10+8=2:reset;garble=7",
		"badshare=1",
		"equivocate=2;silentdealer=3",
		"badshare=0,4;crash@9=2",
		"churn=0.02/0.3",
		"seed=5;churn=0.1/0;outage@3+2=1:reset;lag@1+2=2",
		"churn=0/0",
	}
	for _, spec := range specs {
		p1, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		p2, err := ParsePlan(p1.String())
		if err != nil {
			t.Fatalf("%q: reparse of %q: %v", spec, p1.String(), err)
		}
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("%q: round trip %q changed the plan: %+v vs %+v", spec, p1.String(), p1, p2)
		}
	}
}

func TestParsePlanMultiIDExpansion(t *testing.T) {
	p, err := ParsePlan("crash@4=1,2,5")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nodes) != 3 {
		t.Fatalf("want 3 node faults, got %d", len(p.Nodes))
	}
	for i, want := range []int{1, 2, 5} {
		f := p.Nodes[i]
		if f.Node != want || f.Kind != FaultCrashStop || f.AtCycle != 4 {
			t.Fatalf("fault %d: %+v", i, f)
		}
	}
}

func TestParsePlanErrors(t *testing.T) {
	bad := []string{
		"nope",
		"frobnicate=1",
		"drop=1.5",
		"drop=-0.1",
		"drop=NaN",
		"delay=0.5",   // missing xMAX
		"delay=0.5x0", // zero max delay
		"crash@-1=0",  // negative cycle
		"crash@notnum=0",
		"outage@3=1",        // missing duration
		"outage@3+0=1",      // zero duration
		"lag@1+2=",          // empty id list
		"noise*-1=0",        // negative factor
		"noise*Inf=0",       // non-finite factor
		"drop=0.1;drop=0.2", // duplicate link clause
		"seed=abc",
		"churn=0.1",                   // missing /REJOIN
		"churn=1.5/0.3",               // crash probability out of range
		"churn=0.1/NaN",               // rejoin probability not a number
		"churn=0.1/0.3;churn=0.2/0.3", // duplicate churn clause
	}
	for _, spec := range bad {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("%q: expected parse error", spec)
		}
	}
}

func TestPlanValidatePopulationBounds(t *testing.T) {
	p, err := ParsePlan("crash@1=9")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(10); err != nil {
		t.Fatalf("node 9 valid in population 10: %v", err)
	}
	if err := p.Validate(9); err == nil {
		t.Fatal("node 9 must be rejected in population 9")
	}
}

func TestPlanEmptyAndClassification(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.Empty() || nilPlan.HasByzantine() || nilPlan.ByzantineOf(0) != nil {
		t.Fatal("nil plan must behave as empty")
	}
	p, _ := ParsePlan("")
	if !p.Empty() {
		t.Fatal("parsed empty spec must be empty")
	}
	p, _ = ParsePlan("garble=3")
	if p.Empty() || !p.HasByzantine() || p.hasSchedule() {
		t.Fatalf("byzantine-only plan misclassified: %+v", p)
	}
	if f := p.ByzantineOf(3); f == nil || f.Kind != FaultGarble {
		t.Fatalf("ByzantineOf(3) = %+v", p.ByzantineOf(3))
	}
	if p.ByzantineOf(2) != nil {
		t.Fatal("node 2 is honest")
	}
	p, _ = ParsePlan("lag@1+2=0")
	if p.HasByzantine() || !p.hasSchedule() {
		t.Fatalf("lifecycle-only plan misclassified: %+v", p)
	}
	p, _ = ParsePlan("churn=0.1/0.3")
	if p.Empty() || p.HasByzantine() || !p.hasSchedule() || !p.ChurnOnly() {
		t.Fatalf("churn-only plan misclassified: %+v", p)
	}
	p, _ = ParsePlan("churn=0.1/0.3;drop=0.1")
	if p.ChurnOnly() {
		t.Fatalf("churn with link faults is not churn-only: %+v", p)
	}
	p, _ = ParsePlan("badshare=2")
	if p.Empty() || p.HasByzantine() || p.hasSchedule() || !p.HasDealerFaults() {
		t.Fatalf("dealer-fault plan misclassified: %+v", p)
	}
	if f := p.DealerFaultOf(2); f == nil || f.Kind != FaultDealerBadShare {
		t.Fatalf("DealerFaultOf(2) = %+v", p.DealerFaultOf(2))
	}
	if p.DealerFaultOf(1) != nil {
		t.Fatal("node 1 deals honestly")
	}
}

// TestConditionDeterministicPerSequence pins the conditioner's replay
// property: two Nets bound to the same plan produce identical verdict
// sequences, and the verdicts depend on the per-sender sequence number
// (so repeated sends on one link are conditioned independently).
func TestConditionDeterministicPerSequence(t *testing.T) {
	plan, err := ParsePlan("seed=7;drop=0.3;dup=0.2;delay=0.5x4")
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewNet(plan, 8, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewNet(plan, 8, 99)
	var drops, dups, delays int
	distinct := false
	var prev p2p.Verdict
	for i := 0; i < 2000; i++ {
		va := a.Condition(1, 2, 5, 100)
		vb := b.Condition(1, 2, 5, 100)
		if va != vb {
			t.Fatalf("send %d: verdicts diverge: %+v vs %+v", i, va, vb)
		}
		if i > 0 && va != prev {
			distinct = true
		}
		prev = va
		if va.Drop {
			drops++
		}
		if va.Duplicate {
			dups++
		}
		if va.Delay > 0 {
			if va.Delay > 4 {
				t.Fatalf("delay %d beyond max 4", va.Delay)
			}
			delays++
		}
	}
	if !distinct {
		t.Fatal("verdicts never varied across the sequence")
	}
	// Loose frequency sanity (2000 draws, generous margins).
	if drops < 400 || drops > 800 {
		t.Fatalf("drop rate off: %d/2000 at p=0.3", drops)
	}
	if dups == 0 || delays == 0 {
		t.Fatalf("expected some dups (%d) and delays (%d)", dups, delays)
	}
}

// TestDirectiveSchedules pins the lifecycle schedule semantics, stepping
// every node through the cycles in order as p2p does.
func TestDirectiveSchedules(t *testing.T) {
	plan, err := ParsePlan("crash@5=0;outage@3+4=1:reset;lag@2+3=2;outage@2+2=3;outage@10+2=3:reset")
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNet(plan, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var (
		down  = p2p.NodeDirective{Down: true}
		reset = p2p.NodeDirective{Reset: true}
		stall = p2p.NodeDirective{Stall: true}
		up    = p2p.NodeDirective{}
	)
	want := [][]p2p.NodeDirective{
		// Node 0 crash-stops at cycle 5.
		{up, up, up, up, up, down, down, down, down, down, down, down, down, down},
		// Node 1 is down for cycles 3-6 and reset on its revival at 7.
		{up, up, up, down, down, down, down, reset, up, up, up, up, up, up},
		// Node 2 stalls for cycles 2-4.
		{up, up, stall, stall, stall, up, up, up, up, up, up, up, up, up},
		// Node 3 mixes a state-kept outage (cycles 2-3) with a :reset
		// outage (cycles 10-11): recovery from the first must not reset.
		{up, up, down, down, up, up, up, up, up, up, down, down, reset, up},
	}
	for cycle := range want[0] {
		for id := range want {
			if got := net.Directive(p2p.NodeID(id), cycle); got != want[id][cycle] {
				t.Errorf("Directive(%d, %d) = %+v, want %+v", id, cycle, got, want[id][cycle])
			}
		}
	}
}
