// Package datasets generates the two evaluation workloads of the
// demonstration.
//
// The demo uses (1) the CER dataset — real Irish smart-meter electricity
// consumption series from ISSDA, which is license-gated and cannot be
// redistributed — and (2) the NUMED dataset — tumor-growth series that the
// paper itself generates synthetically from the mathematical models of
// Claret et al. (J. Clin. Onc. 2013).
//
// CER is therefore substituted by an archetype-based
// synthetic generator producing household load curves with the same
// dimensionality, value range and cluster structure (the demo clusters
// load *shapes*), and NUMED is regenerated from the published Claret
// tumor-growth-inhibition model — the same procedure the authors used.
//
// Both generators return ground-truth archetype labels, enabling the
// quality experiments (ARI/NMI against truth) on top of the paper's
// inertia-vs-centralized comparison.
package datasets

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Dataset is a labeled collection of same-length series.
type Dataset struct {
	// Series holds one row per individual.
	Series [][]float64
	// Labels[i] is the ground-truth archetype index of Series[i].
	Labels []int
	// ArchetypeNames names the label values.
	ArchetypeNames []string
	// Dim is the series length.
	Dim int
	// Name identifies the workload in logs and tables.
	Name string
}

// validate checks internal consistency; used by tests.
func (d *Dataset) validate() error {
	if len(d.Series) != len(d.Labels) {
		return errors.New("datasets: series/labels length mismatch")
	}
	for i, s := range d.Series {
		if len(s) != d.Dim {
			return fmt.Errorf("datasets: series %d has dim %d, want %d", i, len(s), d.Dim)
		}
		if d.Labels[i] < 0 || d.Labels[i] >= len(d.ArchetypeNames) {
			return fmt.Errorf("datasets: series %d label %d out of range", i, d.Labels[i])
		}
	}
	return nil
}

// Bounds returns the global min and max across all series.
func (d *Dataset) Bounds() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, s := range d.Series {
		for _, v := range s {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return lo, hi
}

// NormalizeTo01 rescales all series jointly into [0, 1] (Chiaroscuro
// requires a bounded domain for the DP sensitivity). It returns the
// (offset, scale) transform: normalized = (raw-offset)*scale.
func (d *Dataset) NormalizeTo01() (offset, scale float64) {
	lo, hi := d.Bounds()
	offset = lo
	scale = 1.0
	if hi > lo {
		scale = 1 / (hi - lo)
	}
	for _, s := range d.Series {
		for i := range s {
			s[i] = (s[i] - offset) * scale
		}
	}
	return offset, scale
}

// CEROptions configures the electricity-consumption generator.
type CEROptions struct {
	// N is the number of households.
	N int
	// Dim is the number of samples per series (48 = one day of
	// half-hourly readings, the CER resolution).
	Dim int
	// Seed makes generation deterministic.
	Seed int64
	// NoiseStd is the per-sample Gaussian jitter in kW (default 0.08).
	NoiseStd float64
}

// cerArchetype is one household behaviour class. Curves are built from a
// base load plus Gaussian activity bumps at characteristic hours.
type cerArchetype struct {
	name  string
	base  float64
	bumps []bump // hour in [0,24), width in hours, height in kW
}

type bump struct {
	hour, width, height float64
}

var cerArchetypes = []cerArchetype{
	{name: "low-flat", base: 0.18, bumps: []bump{{19, 2.5, 0.25}}},
	{name: "evening-peak", base: 0.35, bumps: []bump{{8, 1.5, 0.5}, {19.5, 2.0, 1.8}}},
	{name: "morning-evening", base: 0.4, bumps: []bump{{7.5, 1.8, 1.2}, {18.5, 2.2, 1.3}}},
	{name: "business-hours", base: 0.3, bumps: []bump{{12, 4.5, 1.6}}},
	{name: "night-storage", base: 0.45, bumps: []bump{{2.5, 3.0, 2.0}, {19, 1.5, 0.5}}},
	{name: "high-constant", base: 1.6, bumps: []bump{{13, 6.0, 0.6}}},
}

// CER generates a CER-like synthetic household electricity dataset.
func CER(opt CEROptions) (*Dataset, error) {
	if opt.N < 1 {
		return nil, fmt.Errorf("datasets: CER population %d < 1", opt.N)
	}
	if opt.Dim < 2 {
		opt.Dim = 48
	}
	if opt.NoiseStd <= 0 {
		opt.NoiseStd = 0.08
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	d := &Dataset{
		Series: make([][]float64, opt.N),
		Labels: make([]int, opt.N),
		Dim:    opt.Dim,
		Name:   "cer-synthetic",
	}
	for _, a := range cerArchetypes {
		d.ArchetypeNames = append(d.ArchetypeNames, a.name)
	}
	for i := 0; i < opt.N; i++ {
		label := rng.Intn(len(cerArchetypes))
		a := cerArchetypes[label]
		// Per-home variation of magnitude and peak timing.
		ampl := 1 + 0.25*rng.NormFloat64()
		if ampl < 0.3 {
			ampl = 0.3
		}
		shift := 0.6 * rng.NormFloat64() // hours
		s := make([]float64, opt.Dim)
		for t := 0; t < opt.Dim; t++ {
			hour := 24 * float64(t) / float64(opt.Dim)
			v := a.base * ampl
			for _, b := range a.bumps {
				v += b.height * ampl * gaussBump(hour, b.hour+shift, b.width)
			}
			v += opt.NoiseStd * rng.NormFloat64()
			if v < 0 {
				v = 0
			}
			s[t] = v
		}
		d.Series[i] = s
		d.Labels[i] = label
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// gaussBump is a circular (24h-periodic) Gaussian bump.
func gaussBump(hour, center, width float64) float64 {
	d := math.Abs(hour - center)
	if d > 12 {
		d = 24 - d
	}
	return math.Exp(-d * d / (2 * width * width))
}

// TumorOptions configures the tumor-growth generator.
type TumorOptions struct {
	// N is the number of patients.
	N int
	// Weeks is the observation horizon; the demo uses twenty weeks.
	Weeks int
	// Seed makes generation deterministic.
	Seed int64
	// NoiseStd is the relative measurement noise (default 0.03).
	NoiseStd float64
}

// claretParams are the parameters of the Claret et al. tumor-growth-
// inhibition model y(t) = y0·exp(KL·t − (KD·E/λ)·(1 − e^{−λ·t})):
// exponential growth at rate KL, drug kill at initial rate KD·E decaying
// with resistance appearance rate λ.
type claretParams struct {
	name string
	kl   float64 // growth rate (1/week)
	kd   float64 // drug-induced decay rate (1/week)
	lam  float64 // resistance appearance rate (1/week)
}

var tumorArchetypes = []claretParams{
	{name: "responder", kl: 0.015, kd: 0.12, lam: 0.01},
	{name: "relapse", kl: 0.055, kd: 0.25, lam: 0.35},
	{name: "progressor", kl: 0.06, kd: 0.01, lam: 0.05},
	{name: "stable", kl: 0.02, kd: 0.022, lam: 0.02},
}

// TumorGrowth generates a NUMED-like synthetic tumor-size dataset from
// the Claret TGI model, sampled weekly.
func TumorGrowth(opt TumorOptions) (*Dataset, error) {
	if opt.N < 1 {
		return nil, fmt.Errorf("datasets: tumor population %d < 1", opt.N)
	}
	if opt.Weeks < 2 {
		opt.Weeks = 20
	}
	if opt.NoiseStd <= 0 {
		opt.NoiseStd = 0.03
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	d := &Dataset{
		Series: make([][]float64, opt.N),
		Labels: make([]int, opt.N),
		Dim:    opt.Weeks,
		Name:   "numed-claret",
	}
	for _, a := range tumorArchetypes {
		d.ArchetypeNames = append(d.ArchetypeNames, a.name)
	}
	for i := 0; i < opt.N; i++ {
		label := rng.Intn(len(tumorArchetypes))
		a := tumorArchetypes[label]
		y0 := 40 + 40*rng.Float64() // baseline tumor size, mm
		// Per-patient parameter jitter (log-normal-ish).
		kl := a.kl * math.Exp(0.2*rng.NormFloat64())
		kd := a.kd * math.Exp(0.2*rng.NormFloat64())
		lam := a.lam * math.Exp(0.2*rng.NormFloat64())
		s := make([]float64, opt.Weeks)
		for w := 0; w < opt.Weeks; w++ {
			t := float64(w)
			y := y0 * math.Exp(claretExponent(kl, kd, lam, t))
			y *= 1 + opt.NoiseStd*rng.NormFloat64()
			if y < 0 {
				y = 0
			}
			s[w] = y
		}
		d.Series[i] = s
		d.Labels[i] = label
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// claretExponent is the exponent of the closed-form Claret solution.
func claretExponent(kl, kd, lam, t float64) float64 {
	if lam == 0 {
		return kl*t - kd*t
	}
	return kl*t - (kd/lam)*(1-math.Exp(-lam*t))
}

// ByName builds the named dataset with the given size and seed, using
// each generator's default resolution. Recognized names: "cer", "tumor".
func ByName(name string, n int, seed int64) (*Dataset, error) {
	switch name {
	case "cer":
		return CER(CEROptions{N: n, Seed: seed})
	case "tumor":
		return TumorGrowth(TumorOptions{N: n, Seed: seed})
	default:
		return nil, fmt.Errorf("datasets: unknown dataset %q", name)
	}
}
