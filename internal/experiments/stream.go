package experiments

import (
	"fmt"
	"math"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/dp"
)

// streamBlobSeries builds a drifting well-separated blob population: k
// archetype levels whose series drift sinusoidally over the stream with
// small per-participant jitter. The separation matters — it is the
// regime where per-window early stopping makes warm-vs-cold iteration
// counts comparable (the CER archetypes overlap enough that disclosed
// centroids keep wobbling above any usable convergence threshold).
func streamBlobSeries(n, k, total int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		base := 0.12 + 0.72*float64(i%k)/float64(k)
		s := make([]float64, total)
		for t := range s {
			v := base + 0.05*math.Sin(2*math.Pi*(float64(t)/float64(total)+float64(i%5)/5)) +
				0.015*float64((i*7+t*3)%5-2)/5
			s[t] = math.Min(1, math.Max(0, v))
		}
		out[i] = s
	}
	return out
}

// streamOutcome aggregates one full streaming session.
type streamOutcome struct {
	ran, skipped int
	spent        float64
	lifetime     float64
	meanDrift    float64 // over windows with a defined drift signal
	totalIters   int
}

// runStreamSession drives one session over the sliding windows of the
// blob population and aggregates its ledger and iteration counts.
func runStreamSession(full [][]float64, dim, windows, slide int, spend dp.SpendStrategy, warm bool, lifetime float64) (*streamOutcome, error) {
	n := len(full)
	initial := make([][]float64, n)
	for i := range initial {
		initial[i] = full[i][:dim]
	}
	sess, err := core.NewRunSession(initial, core.SessionParams{
		// GossipRounds stays at its population-scaled default: the early
		// stop compares disclosed centroids across iterations, so gossip
		// aggregation distortion shows up as centroid wobble that never
		// crosses the convergence threshold.
		Base: core.Params{
			K: 3, Iterations: 10, Seed: 9,
			DecryptThreshold:  4,
			ConvergeThreshold: 0.08,
		},
		LifetimeEpsilon: lifetime,
		Windows:         windows,
		Spend:           spend,
		WarmStart:       warm,
	})
	if err != nil {
		return nil, err
	}
	defer sess.Close()

	out := &streamOutcome{lifetime: lifetime}
	driftWindows := 0
	for w := 0; w < windows; w++ {
		var pts [][]float64
		if w > 0 {
			pts = make([][]float64, n)
			for i := range pts {
				pts[i] = full[i][dim+(w-1)*slide : dim+w*slide]
			}
		}
		res, err := sess.Advance(pts)
		if err != nil {
			return nil, err
		}
		if res.Skipped {
			out.skipped++
		} else {
			out.ran++
			out.totalIters += len(res.Trace.Iterations)
		}
		if !math.IsNaN(res.Drift) {
			out.meanDrift += res.Drift
			driftWindows++
		}
		out.spent = res.Budget.Spent
	}
	if driftWindows > 0 {
		out.meanDrift /= float64(driftWindows)
	} else {
		out.meanDrift = math.NaN()
	}
	return out, nil
}

// E13StreamingRecluster is the streaming quality/budget experiment: a
// drifting population re-clustered over a sliding window under each
// budget spend strategy, warm-started and cold, reporting how the
// lifetime epsilon drains, how far the disclosed centroids drift
// between windows, and how many k-means iterations warm-starting saves
// at the same convergence threshold.
func E13StreamingRecluster(sc Scale) (*Table, error) {
	const dim, slide, k = 8, 2, 3
	windows := 6
	n := sc.Population
	full := streamBlobSeries(n, k, dim+(windows-1)*slide)
	// Ample per-window budget at the demo's population-scaling rule, so
	// iteration counts reflect convergence rather than noise starvation.
	lifetime := float64(windows) * scaledEps(1.0, n)

	t := &Table{
		ID:    "E13",
		Title: fmt.Sprintf("Streaming re-clustering over %d windows (drifting blobs, n=%d, slide %d, early stop at 0.08)", windows, n, slide),
		Header: []string{"budget strategy", "windows run+skip", "ε spent / lifetime",
			"mean disclosed drift", "iters (warm)", "iters (cold)", "saved by warm-start"},
	}
	for _, name := range []string{"uniform", "decaying", "threshold"} {
		spend, err := dp.SpendStrategyByName(name, 0.05)
		if err != nil {
			return nil, err
		}
		warm, err := runStreamSession(full, dim, windows, slide, spend, true, lifetime)
		if err != nil {
			return nil, err
		}
		cold, err := runStreamSession(full, dim, windows, slide, spend, false, lifetime)
		if err != nil {
			return nil, err
		}
		saved := "-"
		if cold.totalIters > warm.totalIters {
			saved = fmt.Sprintf("%d (%.0f%%)", cold.totalIters-warm.totalIters,
				100*float64(cold.totalIters-warm.totalIters)/float64(cold.totalIters))
		}
		drift := "-"
		if !math.IsNaN(warm.meanDrift) {
			drift = f4(warm.meanDrift)
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d+%d", warm.ran, warm.skipped),
			fmt.Sprintf("%.0f / %.0f", warm.spent, warm.lifetime),
			drift,
			d(warm.totalIters), d(cold.totalIters), saved,
		})
	}
	t.Notes = append(t.Notes,
		"warm-started windows resume from the previous window's disclosed centroids (already-public data), so they re-converge in fewer iterations than cold restarts from the public level init; every saved iteration is also a saved run of the full gossip+decrypt pipeline.",
		"the threshold strategy skips re-clustering while the disclosed drift stays under its bound (0.05 here), spending no ε on those windows — the ledger column shows the resulting budget savings.",
		fmt.Sprintf("lifetime ε provisioned as %d windows at the demo's population-scaled per-window budget (ε_target=1 @ 10^6 devices).", windows))
	return t, nil
}
