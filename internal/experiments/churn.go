package experiments

import (
	"fmt"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/datasets"
	"chiaroscuro/internal/simnet"
)

// E8ChurnResilience reproduces the fault-tolerance side of the paper's
// challenge statement (Sec. I: "massive distribution of the execution
// over possibly faulty computing nodes"): the protocol must degrade
// gracefully, not fail, when nodes crash and rejoin mid-run.
func E8ChurnResilience(sc Scale) (*Table, error) {
	ds, err := datasets.CER(datasets.CEROptions{N: sc.Population, Dim: 24, Seed: 41})
	if err != nil {
		return nil, err
	}
	ds.NormalizeTo01()
	t := &Table{
		ID:    "E8",
		Title: "Fault tolerance — quality under per-cycle crash probability (rejoin prob 0.3, state kept)",
		Header: []string{"crash prob / cycle", "crashes", "messages dropped",
			"decrypt failures", "final noise RMSE", "inertia ratio"},
	}
	for _, crash := range []float64{0, 0.01, 0.03, 0.05} {
		plan, err := simnet.ParsePlan(fmt.Sprintf("churn=%g/0.3", crash))
		if err != nil {
			return nil, err
		}
		pt, tr, err := runQualityPointWithTrace(ds, 5, core.Params{
			Epsilon:    scaledEps(1.0, sc.Population),
			Iterations: sc.Iterations,
			Seed:       41,
			Faults:     plan,
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", crash),
			d(tr.NetStats.Crashes),
			d(tr.NetStats.MessagesDropped),
			d(tr.DecryptFailures),
			f4(tr.Iterations[len(tr.Iterations)-1].NoiseRMSE),
			f3(pt.inertiaRatio),
		})
	}
	t.Notes = append(t.Notes,
		"crashes lose in-flight gossip mass and may delay decryption quorums, but push-sum estimates are self-normalizing weighted averages, so quality degrades smoothly instead of collapsing — the property that lets Chiaroscuro avoid non-fault-tolerant cryptographic alternatives (Sec. I).")
	return t, nil
}
