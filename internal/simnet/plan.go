package simnet

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// plan.go implements the textual scenario grammar behind the public
// Config.Faults field and the -faults CLI flag, so every discovered
// failure can be replayed from one copy-pastable string.
//
// A scenario is a semicolon-separated list of clauses (whitespace
// ignored, clause order preserved):
//
//	seed=S              pin the fault seed (default: derived from the run seed)
//	drop=P              drop each message with probability P
//	dup=P               duplicate each message with probability P
//	delay=PxD           delay each delivered copy with probability P by
//	                    a uniform 1..D extra cycles
//	churn=P/R           each cycle, crash an up node with probability P
//	                    and rejoin a churn-downed node (state kept) with
//	                    probability R
//	crash@C=ids         crash-stop the listed nodes at cycle C
//	outage@C+D=ids[:reset]
//	                    take the listed nodes down for D cycles starting
//	                    at C; ":reset" wipes their state on recovery
//	lag@C+D=ids         stall the listed nodes for D cycles starting at C
//	garble=ids          byzantine: garbage-but-valid ciphertexts
//	malform=ids         byzantine: malformed vectors/ciphers/weights
//	replay=ids          byzantine: replay the first emitted gossip message
//	noise*F=ids         byzantine: scale noise shares by F
//	badshare=ids        byzantine dealer: corrupt one dealt DKG share,
//	                    withhold the justification (DKG runs only)
//	equivocate=ids      byzantine dealer: conflicting DKG commitments
//	silentdealer=ids    byzantine dealer: deal to nobody
//
// where ids is a comma-separated list of node ids. Example:
//
//	drop=0.05;delay=0.2x3;churn=0.02/0.3;outage@10+8=1,2:reset;garble=7
//
// ParsePlan and (*Plan).String round-trip: parsing the String of a
// parsed plan yields an identical plan (the fuzz target's invariant).

// ParsePlan parses a scenario spec. The empty string parses to an empty
// plan. Node ids are validated against the population later, by
// Plan.Validate / NewNet.
func ParsePlan(spec string) (*Plan, error) {
	p := &Plan{}
	seen := map[string]bool{}
	for _, raw := range strings.Split(spec, ";") {
		clause := strings.TrimSpace(raw)
		if clause == "" {
			continue
		}
		key, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("simnet: clause %q is not key=value", clause)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch {
		case key == "seed":
			s, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("simnet: bad seed %q", val)
			}
			p.Seed = s
		case key == "drop" || key == "dup":
			if seen[key] {
				return nil, fmt.Errorf("simnet: duplicate %s clause", key)
			}
			seen[key] = true
			pr, err := parseProb(val)
			if err != nil {
				return nil, err
			}
			if key == "drop" {
				p.Links.DropProb = pr
			} else {
				p.Links.DupProb = pr
			}
		case key == "delay":
			if seen[key] {
				return nil, fmt.Errorf("simnet: duplicate delay clause")
			}
			seen[key] = true
			probStr, maxStr, ok := strings.Cut(val, "x")
			if !ok {
				return nil, fmt.Errorf("simnet: delay wants PROBxMAX, got %q", val)
			}
			pr, err := parseProb(probStr)
			if err != nil {
				return nil, err
			}
			max, err := parseSmallInt(maxStr)
			if err != nil || max < 1 {
				return nil, fmt.Errorf("simnet: bad max delay %q", maxStr)
			}
			p.Links.DelayProb = pr
			if pr > 0 { // normalize: a zero-probability delay carries no bound
				p.Links.MaxDelay = max
			}
		case key == "churn":
			if seen[key] {
				return nil, fmt.Errorf("simnet: duplicate churn clause")
			}
			seen[key] = true
			crashStr, rejoinStr, ok := strings.Cut(val, "/")
			if !ok {
				return nil, fmt.Errorf("simnet: churn wants CRASH/REJOIN, got %q", val)
			}
			crash, err := parseProb(crashStr)
			if err != nil {
				return nil, err
			}
			rejoin, err := parseProb(rejoinStr)
			if err != nil {
				return nil, err
			}
			p.churn = churn{crash: crash, rejoin: rejoin}
		case strings.HasPrefix(key, "crash@"):
			at, err := parseSmallInt(key[len("crash@"):])
			if err != nil {
				return nil, fmt.Errorf("simnet: bad crash cycle in %q", key)
			}
			if err := appendNodeFaults(p, val, NodeFault{Kind: FaultCrashStop, AtCycle: at}); err != nil {
				return nil, err
			}
		case strings.HasPrefix(key, "outage@"):
			at, dur, err := parseWindow(key[len("outage@"):])
			if err != nil {
				return nil, err
			}
			ids, reset := strings.CutSuffix(val, ":reset")
			if err := appendNodeFaults(p, ids, NodeFault{Kind: FaultOutage, AtCycle: at, Duration: dur, Reset: reset}); err != nil {
				return nil, err
			}
		case strings.HasPrefix(key, "lag@"):
			at, dur, err := parseWindow(key[len("lag@"):])
			if err != nil {
				return nil, err
			}
			if err := appendNodeFaults(p, val, NodeFault{Kind: FaultLaggard, AtCycle: at, Duration: dur}); err != nil {
				return nil, err
			}
		case key == "garble":
			if err := appendNodeFaults(p, val, NodeFault{Kind: FaultGarble}); err != nil {
				return nil, err
			}
		case key == "malform":
			if err := appendNodeFaults(p, val, NodeFault{Kind: FaultMalform}); err != nil {
				return nil, err
			}
		case key == "replay":
			if err := appendNodeFaults(p, val, NodeFault{Kind: FaultReplay}); err != nil {
				return nil, err
			}
		case key == "badshare":
			if err := appendNodeFaults(p, val, NodeFault{Kind: FaultDealerBadShare}); err != nil {
				return nil, err
			}
		case key == "equivocate":
			if err := appendNodeFaults(p, val, NodeFault{Kind: FaultDealerEquivocate}); err != nil {
				return nil, err
			}
		case key == "silentdealer":
			if err := appendNodeFaults(p, val, NodeFault{Kind: FaultDealerSilent}); err != nil {
				return nil, err
			}
		case strings.HasPrefix(key, "noise*"):
			f, err := strconv.ParseFloat(key[len("noise*"):], 64)
			if err != nil || f < 0 || math.IsInf(f, 0) || math.IsNaN(f) {
				return nil, fmt.Errorf("simnet: bad noise factor in %q", key)
			}
			if err := appendNodeFaults(p, val, NodeFault{Kind: FaultSkewNoise, Factor: f}); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("simnet: unknown clause %q", clause)
		}
	}
	return p, nil
}

// maxSpecCycles bounds cycle, duration and delay literals so an
// adversarial spec cannot smuggle pathological magnitudes into the
// schedule arithmetic (no realistic scenario comes near it).
const maxSpecCycles = 1 << 30

func parseProb(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || v < 0 || v > 1 || math.IsNaN(v) {
		return 0, fmt.Errorf("simnet: bad probability %q", s)
	}
	return v, nil
}

func parseSmallInt(s string) (int, error) {
	v, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || v < 0 || v > maxSpecCycles {
		return 0, fmt.Errorf("simnet: bad integer %q", s)
	}
	return v, nil
}

// parseWindow parses "CYCLE+DURATION".
func parseWindow(s string) (at, dur int, err error) {
	atStr, durStr, ok := strings.Cut(s, "+")
	if !ok {
		return 0, 0, fmt.Errorf("simnet: window wants CYCLE+DURATION, got %q", s)
	}
	if at, err = parseSmallInt(atStr); err != nil {
		return 0, 0, err
	}
	if dur, err = parseSmallInt(durStr); err != nil || dur < 1 {
		return 0, 0, fmt.Errorf("simnet: bad duration %q", durStr)
	}
	return at, dur, nil
}

// appendNodeFaults expands a comma-separated id list into one NodeFault
// per node, all sharing the template.
func appendNodeFaults(p *Plan, ids string, tpl NodeFault) error {
	if strings.TrimSpace(ids) == "" {
		return fmt.Errorf("simnet: %s clause with empty node list", tpl.Kind)
	}
	for _, idStr := range strings.Split(ids, ",") {
		id, err := parseSmallInt(idStr)
		if err != nil {
			return fmt.Errorf("simnet: bad node id %q", idStr)
		}
		f := tpl
		f.Node = id
		p.Nodes = append(p.Nodes, f)
	}
	return nil
}

// String renders the plan in the scenario grammar. Parsing the result
// yields an identical plan.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var parts []string
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	if p.Links.DropProb > 0 {
		parts = append(parts, "drop="+formatProb(p.Links.DropProb))
	}
	if p.Links.DupProb > 0 {
		parts = append(parts, "dup="+formatProb(p.Links.DupProb))
	}
	if p.Links.DelayProb > 0 {
		max := p.Links.MaxDelay
		if max < 1 {
			max = 1
		}
		parts = append(parts, fmt.Sprintf("delay=%sx%d", formatProb(p.Links.DelayProb), max))
	}
	if p.churn.active() {
		parts = append(parts, fmt.Sprintf("churn=%s/%s", formatProb(p.churn.crash), formatProb(p.churn.rejoin)))
	}
	for _, f := range p.Nodes {
		switch f.Kind {
		case FaultCrashStop:
			parts = append(parts, fmt.Sprintf("crash@%d=%d", f.AtCycle, f.Node))
		case FaultOutage:
			c := fmt.Sprintf("outage@%d+%d=%d", f.AtCycle, f.Duration, f.Node)
			if f.Reset {
				c += ":reset"
			}
			parts = append(parts, c)
		case FaultLaggard:
			parts = append(parts, fmt.Sprintf("lag@%d+%d=%d", f.AtCycle, f.Duration, f.Node))
		case FaultGarble:
			parts = append(parts, fmt.Sprintf("garble=%d", f.Node))
		case FaultMalform:
			parts = append(parts, fmt.Sprintf("malform=%d", f.Node))
		case FaultReplay:
			parts = append(parts, fmt.Sprintf("replay=%d", f.Node))
		case FaultDealerBadShare:
			parts = append(parts, fmt.Sprintf("badshare=%d", f.Node))
		case FaultDealerEquivocate:
			parts = append(parts, fmt.Sprintf("equivocate=%d", f.Node))
		case FaultDealerSilent:
			parts = append(parts, fmt.Sprintf("silentdealer=%d", f.Node))
		case FaultSkewNoise:
			parts = append(parts, fmt.Sprintf("noise*%s=%d", formatProb(f.Factor), f.Node))
		}
	}
	return strings.Join(parts, ";")
}

// formatProb prints a float with full round-trip precision and no
// exponent surprises for the common hand-written values.
func formatProb(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
