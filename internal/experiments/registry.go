package experiments

import "fmt"

// Runner is one experiment entry point.
type Runner func(Scale) (*Table, error)

// Registry lists every experiment, in the order expdriver runs them.
func Registry() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"E1", E1CentroidEvolution},
		{"E2", E2NoiseImpact},
		{"E3", E3ProfileSearch},
		{"E4", E4QualityVsPrivacy},
		{"E5a", E5CryptoCosts},
		{"E5b", E5CostProjection},
		{"E6", E6GossipConvergence},
		{"E7", E7HeuristicsAblation},
		{"E8", E8ChurnResilience},
		{"E9", E9NoisePopulationScaling},
		{"E10", E10GossipMessageBudget},
		{"E11", E11FaultInjection},
		{"E13", E13StreamingRecluster},
	}
}

// ByID resolves one experiment.
func ByID(id string) (Runner, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}
