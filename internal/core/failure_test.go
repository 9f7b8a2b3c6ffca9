package core

import (
	"testing"
)

// TestDecryptQuorumFailureDegradesGracefully injects a hostile
// configuration — a large decryption threshold, a tight retry window and
// aggressive churn — and verifies the protocol's documented degradation:
// iterations that cannot assemble a quorum keep the previous centroids,
// are counted in DecryptFailures, and the run still produces a trace.
func TestDecryptQuorumFailureDegradesGracefully(t *testing.T) {
	data := blobs(60, 3, 2)
	var sawFailure bool
	for seed := int64(0); seed < 6 && !sawFailure; seed++ {
		tr, err := Run(data, Params{
			K: 2, Epsilon: 50, Iterations: 3, Seed: seed,
			DecryptThreshold: 40, // needs 40 of 59 peers
			DecryptWindow:    1,  // nearly no retries
			GossipRounds:     6,
			Faults:           mustPlan(t, "churn=0.08/0.5"),
		})
		if err != nil {
			// A fully hostile network may legitimately abort; that is
			// also a documented outcome.
			continue
		}
		if tr.DecryptFailures > 0 {
			sawFailure = true
			if len(tr.Iterations) == 0 {
				t.Fatal("failures but no trace at all")
			}
		}
	}
	if !sawFailure {
		t.Fatal("no decryption failure induced across 6 hostile seeds — injection ineffective")
	}
}

// TestPermanentFailuresWithReset exercises the state-loss path under
// churn: nodes coming back from a :reset outage restart from scratch and
// resynchronize via gossip (the paper's "late participants" rule). The
// run must complete and the reset nodes must not corrupt the observer's
// trace.
func TestPermanentFailuresWithReset(t *testing.T) {
	data := blobs(120, 3, 2)
	tr, err := Run(data, Params{
		K: 2, Epsilon: 200, Iterations: 3, Seed: 3,
		Faults: mustPlan(t, "churn=0.03/0.5;outage@6+10=5,17,40,77:reset;outage@25+6=90,101:reset"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NetStats.Rejoins == 0 {
		t.Skip("no rejoin happened on this seed; churn too mild")
	}
	if len(tr.Iterations) != 3 {
		t.Fatalf("iterations = %d", len(tr.Iterations))
	}
	// Reset nodes drop mass, so distortion grows — but the trace must
	// stay within sane bounds.
	if tr.Iterations[len(tr.Iterations)-1].NoiseRMSE > 0.5 {
		t.Fatalf("noise RMSE = %v", tr.Iterations[len(tr.Iterations)-1].NoiseRMSE)
	}
}

// TestLateSyncPullsLaggardsForward checks the late-synchronization rule
// directly: even when many nodes crash mid-iteration and rejoin with
// state kept, everyone that survives ends on the final iteration.
func TestLateSyncPullsLaggardsForward(t *testing.T) {
	data := blobs(100, 3, 2)
	tr, err := Run(data, Params{
		K: 2, Epsilon: 200, Iterations: 4, Seed: 9,
		Faults: mustPlan(t, "churn=0.05/0.6"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The observer must have completed all iterations despite churn.
	if len(tr.Iterations) != 4 {
		t.Fatalf("observer completed %d iterations", len(tr.Iterations))
	}
	if tr.CyclesRun == 0 || tr.NetStats.Crashes == 0 {
		t.Fatalf("suspicious run: %+v", tr.NetStats)
	}
}

// TestZeroChurnHasNoFailures pins the baseline: without churn there must
// be no decrypt failures, drops, or stale messages beyond the frozen-
// estimate window.
func TestZeroChurnHasNoFailures(t *testing.T) {
	data := blobs(80, 3, 2)
	tr, err := Run(data, Params{K: 2, Epsilon: 100, Iterations: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if tr.DecryptFailures != 0 {
		t.Fatalf("decrypt failures without churn: %d", tr.DecryptFailures)
	}
	if tr.NetStats.MessagesDropped != 0 {
		t.Fatalf("drops without churn: %d", tr.NetStats.MessagesDropped)
	}
	if tr.NetStats.Crashes != 0 || tr.NetStats.Rejoins != 0 {
		t.Fatalf("phantom churn: %+v", tr.NetStats)
	}
}
