package main

import (
	"fmt"
	"math"

	"chiaroscuro"
)

// streamOptions collects the -stream mode's flag values.
type streamOptions struct {
	dataset          string
	n, k             int
	lifetimeEpsilon  float64
	windows, slide   int
	warmStart        bool
	budgetStrategy   string
	driftThreshold   float64
	iterations       int
	converge         float64
	gossipRounds     int
	decryptThreshold int
	engine           string
	workers          int
	seed             int64
	quiet            bool
}

// loadStream generates a workload long enough for the whole stream —
// window width dim plus (windows−1)·slide extra samples per series —
// and splits it into the initial window and the per-window slides.
func loadStream(o streamOptions, dim int) (initial [][]float64, steps [][][]float64, err error) {
	total := dim + (o.windows-1)*o.slide
	var series [][]float64
	switch o.dataset {
	case "cer":
		series, _, _, err = chiaroscuro.SyntheticCERErr(o.n, total, o.seed)
	case "tumor":
		series, _, _, err = chiaroscuro.SyntheticTumorGrowthErr(o.n, total, o.seed)
	default:
		err = fmt.Errorf("unknown dataset %q (want cer or tumor)", o.dataset)
	}
	if err != nil {
		return nil, nil, err
	}
	if _, _, err := chiaroscuro.Normalize01(series); err != nil {
		return nil, nil, err
	}
	initial = make([][]float64, o.n)
	for i := range initial {
		initial[i] = append([]float64(nil), series[i][:dim]...)
	}
	steps = make([][][]float64, o.windows-1)
	for w := range steps {
		steps[w] = make([][]float64, o.n)
		for i := range steps[w] {
			steps[w][i] = append([]float64(nil), series[i][dim+w*o.slide:dim+(w+1)*o.slide]...)
		}
	}
	return initial, steps, nil
}

// runStream is the -stream mode: a streaming session over a sliding
// window of the chosen workload, one protocol run (or budget-strategy
// skip) per window, with the longitudinal ledger printed as it drains.
func runStream(o streamOptions) error {
	if o.windows < 1 {
		return fmt.Errorf("-windows must be at least 1, got %d", o.windows)
	}
	if o.slide < 1 {
		return fmt.Errorf("-window-slide must be at least 1, got %d", o.slide)
	}
	dim := 24
	if o.dataset == "tumor" {
		dim = 20
	}
	initial, steps, err := loadStream(o, dim)
	if err != nil {
		return err
	}
	sess, err := chiaroscuro.OpenStream(initial, chiaroscuro.Config{
		K:                 o.k,
		LifetimeEpsilon:   o.lifetimeEpsilon,
		Windows:           o.windows,
		WarmStart:         o.warmStart,
		BudgetStrategy:    o.budgetStrategy,
		DriftThreshold:    o.driftThreshold,
		Iterations:        o.iterations,
		ConvergeThreshold: o.converge,
		GossipRounds:      o.gossipRounds,
		DecryptThreshold:  o.decryptThreshold,
		Engine:            o.engine,
		Workers:           o.workers,
		Seed:              o.seed,
	})
	if err != nil {
		return err
	}
	defer sess.Close()

	fmt.Printf("chiaroscuro stream: %s workload, %d participants, k=%d, %d windows (slide %d), lifetime ε=%.4g, strategy=%s",
		o.dataset, o.n, o.k, o.windows, o.slide, o.lifetimeEpsilon, orDefault(o.budgetStrategy, "uniform"))
	if o.warmStart {
		fmt.Printf(", warm-start")
	}
	fmt.Println()
	if !o.quiet {
		fmt.Println("\nwindow  ε drawn   iters  drift     inertia     ε remaining")
	}
	for w := 0; w < o.windows; w++ {
		var pts [][]float64
		if w > 0 {
			pts = steps[w-1]
		}
		res, err := sess.Advance(pts)
		if err != nil {
			return fmt.Errorf("window %d: %w", w, err)
		}
		if o.quiet {
			continue
		}
		st := res.Stream
		if st.Skipped {
			fmt.Printf("%6d  %-9s %-6s %-9.4f %-11s %.4g\n",
				w, "skip", "-", st.Drift, "-", st.Budget.Remaining)
			continue
		}
		drift := "-"
		if !math.IsNaN(st.Drift) {
			drift = fmt.Sprintf("%.4f", st.Drift)
		}
		fmt.Printf("%6d  %-9.4g %-6d %-9s %-11.4f %.4g\n",
			w, st.EpsilonDrawn, len(res.Trace), drift, res.Inertia, st.Budget.Remaining)
	}
	b := sess.Budget()
	fmt.Printf("\nledger:   ε %.4g of %.4g spent over %d windows (%d skipped), %.4g remaining\n",
		b.SpentEpsilon, b.LifetimeEpsilon, b.Windows, b.Skips, b.Remaining)
	return nil
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
