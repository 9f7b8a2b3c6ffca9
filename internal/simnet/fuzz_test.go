package simnet

import (
	"reflect"
	"testing"

	"chiaroscuro/internal/p2p"
)

// maxFuzzPopulation bounds the population FuzzParsePlan binds a plan to.
const maxFuzzPopulation = 1 << 12

// FuzzParsePlan hammers the scenario decoder with arbitrary input — the
// fault-plan analogue of the internal/wire unmarshal fuzzers. Whatever
// parses must satisfy three properties:
//
//   - the canonical form round-trips losslessly (String → ParsePlan →
//     identical plan), so a logged scenario always replays;
//   - the parsed plan passes Validate for some population (node ids and
//     magnitudes are bounded by the grammar, never attacker-chosen
//     beyond maxSpecCycles);
//   - nothing panics.
func FuzzParsePlan(f *testing.F) {
	f.Add("")
	f.Add("drop=0.05")
	f.Add("seed=42;drop=0.1;dup=0.02;delay=0.25x3")
	f.Add("crash@10=3;outage@5+8=1,2:reset;lag@0+4=7")
	f.Add("garble=0;malform=1;replay=2;noise*50=3")
	f.Add("noise*1e-3=0")
	f.Add("badshare=1;equivocate=2;silentdealer=3")
	f.Add("drop=1;dup=1;delay=1x1")
	f.Add("outage@0+1=0:reset;outage@0+1=0")
	f.Add(";;;drop=0.5;;")
	f.Add("churn=0.3/0.5;outage@1+2=0:reset;lag@2+1=1")
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return // rejected input: only the no-panic property applies
		}
		canon := p.String()
		p2, err := ParsePlan(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not reparse: %v", canon, spec, err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("round trip of %q via %q changed the plan:\n%+v\nvs\n%+v", spec, canon, p, p2)
		}
		// A plan whose node ids all fit must validate; one is the
		// smallest population the engines accept faults for.
		maxNode := 0
		for _, nf := range p.Nodes {
			if nf.Node > maxNode {
				maxNode = nf.Node
			}
		}
		if err := p.Validate(maxNode + 1); err != nil {
			t.Fatalf("parsed plan %q fails validation: %v", spec, err)
		}
		// Binding and exercising the hooks must not panic either. The
		// lifecycle is stepped as p2p steps it: every node once per
		// cycle, in id order, cycles in order. Binding is O(population),
		// so plans naming a node beyond a small population stop here.
		if maxNode >= maxFuzzPopulation {
			return
		}
		net, err := NewNet(p, maxNode+1, 1)
		if err != nil {
			t.Fatalf("NewNet on parsed plan %q: %v", spec, err)
		}
		for cycle := 0; cycle < 4; cycle++ {
			for id := 0; id <= maxNode; id++ {
				net.Directive(p2p.NodeID(id), cycle)
			}
			net.Condition(0, 0, cycle, 64)
		}
	})
}
