package core

import (
	"errors"
	"fmt"
	"math"

	"chiaroscuro/internal/dp"
	"chiaroscuro/internal/fixedpoint"
	"chiaroscuro/internal/gossip"
	"chiaroscuro/internal/simnet"
)

// SmoothingMethod selects the perturbed-mean smoothing heuristic.
type SmoothingMethod int

const (
	// SmoothingNone disables smoothing.
	SmoothingNone SmoothingMethod = iota
	// SmoothingMovingAverage applies a centered moving average of width
	// Window along the time axis.
	SmoothingMovingAverage
	// SmoothingExponential applies exponential smoothing with factor
	// Alpha.
	SmoothingExponential
)

// SmoothingSpec configures the second quality-enhancing heuristic family
// ("smoothing the perturbed means", Sec. II.B). Laplace noise is
// independent across time steps while genuine centroids are smooth, so a
// low-pass filter removes noise faster than signal.
type SmoothingSpec struct {
	Method SmoothingMethod
	Window int     // moving-average width (default 3)
	Alpha  float64 // exponential factor in (0,1] (default 0.35)
}

// Backend selects the cipher suite implementation.
type Backend int

const (
	// BackendPlainAccounted runs plaintext ring arithmetic with cost
	// accounting — the demonstration's configuration.
	BackendPlainAccounted Backend = iota
	// BackendDamgardJurik runs real threshold homomorphic encryption.
	BackendDamgardJurik
)

// Params configures a Chiaroscuro run. Zero values take the documented
// defaults in Validate.
type Params struct {
	// K is the number of clusters.
	K int
	// Epsilon is the global differential-privacy budget.
	Epsilon float64
	// Iterations is the number of k-means iterations (the paper's
	// "given number of iterations" termination criterion; the budget is
	// split across exactly this many disclosures).
	Iterations int
	// ConvergeThreshold stops early when the max centroid displacement
	// falls below it (0 disables early stopping).
	ConvergeThreshold float64

	// GossipRounds is the number of gossip exchanges per participant per
	// aggregation phase.
	GossipRounds int
	// DecryptThreshold is the number of distinct partial decryptions
	// needed to open a ciphertext. Default: max(3, population/10).
	DecryptThreshold int
	// DecryptWindow is how many cycles a participant waits (re-asking
	// fresh peers every cycle) before an iteration fails. Default 8.
	DecryptWindow int

	// Backend selects real or accounted encryption.
	Backend Backend
	// ModulusBits is the key size (fixture sizes: 64..2048). Default 256
	// for the real backend, 1024 (accounting only) for the plain one.
	ModulusBits int
	// Degree is the Damgård–Jurik s. Default 1 (Paillier).
	Degree int

	// FracBits is the fixed-point fractional precision. Default 30.
	FracBits uint

	// Strategy distributes Epsilon across iterations. Default
	// dp.Uniform{}.
	Strategy dp.Strategy
	// Smoothing configures perturbed-mean smoothing.
	Smoothing SmoothingSpec

	// TrackInertia adds one aggregate to the per-iteration disclosure:
	// the (perturbed) mean squared distance of the participants' series
	// to their closest centroid — the clustering objective itself. This
	// implements the paper's footnote 2: "Chiaroscuro supports the
	// addition of other termination criteria ... (e.g., monitoring
	// centroids quality)". The extra aggregate raises the per-iteration
	// L1 sensitivity by dim·MaxValue², which the noise scale accounts
	// for automatically.
	TrackInertia bool
	// InertiaStopThreshold (requires TrackInertia) terminates the run
	// when the tracked inertia's relative improvement over the previous
	// iteration falls below the threshold (quality plateaued). 0
	// disables.
	InertiaStopThreshold float64

	// InitialCentroids, when non-nil, are used as the public iteration-1
	// centroids. When nil, K data-independent uniform random vectors in
	// [0,1]^dim are drawn from Seed.
	InitialCentroids [][]float64

	// Seed drives every random choice (simulation, noise, init).
	Seed int64

	// Workers picks the cycle-driven scheduler: 0 or 1 activates the
	// participants one after another each cycle, a larger value across
	// that many shard workers (see Run). Any value produces
	// bit-identical results; Workers only trades wall-clock for cores.
	// The effective count is capped at the population size and at
	// max(64, 4·GOMAXPROCS) (see internal/p2p).
	Workers int

	// Packed is ignored: every run packs its encrypted side (see
	// docs/CRYPTO.md, "Slot packing"). It stays until the benchmark,
	// which sets it, stops doing so.
	Packed bool

	// MaxValue bounds the (normalized) data domain; inputs must lie in
	// [0, MaxValue]. Default 1. The DP sensitivity derives from it.
	MaxValue float64

	// Churn configures per-cycle crash/rejoin probabilities (see
	// internal/p2p).
	ChurnCrashProb  float64
	ChurnRejoinProb float64
	// ChurnResetOnRejoin makes failures permanent-loss: a rejoining node
	// restarts from scratch and late-syncs on the next gossip message
	// (the paper's "late participants" path). Default false = transient
	// outage, state kept.
	ChurnResetOnRejoin bool

	// Faults is the deterministic fault-injection plan (see
	// internal/simnet): per-link drop/duplicate/delay probabilities plus
	// scheduled participant faults — crash-stop, crash-recovery with
	// optional state loss, laggards, and byzantine senders (garbled,
	// malformed or replayed ciphertexts, skewed noise shares). Both
	// engines replay the identical fault trajectory for the same (Seed,
	// Faults) pair at any worker count. A byzantine plan additionally
	// enables wire validation of incoming gossip messages. Nil injects
	// nothing.
	Faults *simnet.Plan

	// DKG replaces the Damgård–Jurik backend's trusted dealer with the
	// in-process distributed key ceremony (internal/crypto/dkg): every
	// participant is a founder dealer, the Faults plan's dealer clauses
	// (badshare/equivocate/silentdealer) script byzantine dealers, and a
	// disqualification re-splits the genesis exponent among the
	// qualified founders and re-runs — so faulty ceremonies still
	// converge on a working key, deterministically in Seed. Requires
	// BackendDamgardJurik. Decryptions are exact, so DKG-backed runs
	// disclose trajectories bit-identical to dealer-backed ones.
	DKG bool

	// DJMaterial supplies pre-computed key-ceremony output instead of
	// running a ceremony (or a dealer) when the population opens — the
	// networked daemon path: internal/transport runs the wire ceremony
	// before the first epoch and hands each process material holding
	// only its own share. Requires BackendDamgardJurik; Parties/Threshold
	// must match the run's population and DecryptThreshold.
	DJMaterial *DJKeyMaterial
}

// withDefaults returns a copy with defaults applied for a population of n
// participants with series of the given dimension.
func (p Params) withDefaults(n int) Params {
	if p.Iterations == 0 {
		p.Iterations = 8
	}
	if p.GossipRounds == 0 {
		// Push-sum error decays exponentially; ~log2(n)+10 rounds give
		// sub-percent error at the demo's population scale.
		p.GossipRounds = int(math.Ceil(math.Log2(float64(n)))) + 10
	}
	if p.DecryptThreshold == 0 {
		// Enough parties that collusion below the threshold is unlikely,
		// capped so decryption traffic stays proportionate (the demo
		// exposes this as a mutable parameter for exactly this
		// trade-off).
		p.DecryptThreshold = n / 20
		if p.DecryptThreshold < 3 {
			p.DecryptThreshold = 3
		}
		if p.DecryptThreshold > 16 {
			p.DecryptThreshold = 16
		}
		if p.DecryptThreshold > n-1 {
			p.DecryptThreshold = n - 1
		}
		if p.DecryptThreshold < 1 {
			p.DecryptThreshold = 1
		}
	}
	if p.DecryptWindow == 0 {
		p.DecryptWindow = 8
	}
	if p.ModulusBits == 0 {
		if p.Backend == BackendDamgardJurik {
			p.ModulusBits = 256
		} else {
			p.ModulusBits = 1024
		}
	}
	if p.Degree == 0 {
		p.Degree = 1
	}
	if p.FracBits == 0 {
		p.FracBits = 30
	}
	if p.Strategy == nil {
		p.Strategy = dp.Uniform{}
	}
	if p.Smoothing.Method == SmoothingMovingAverage && p.Smoothing.Window == 0 {
		p.Smoothing.Window = 3
	}
	if p.Smoothing.Method == SmoothingExponential && p.Smoothing.Alpha == 0 {
		p.Smoothing.Alpha = 0.35
	}
	if p.MaxValue == 0 {
		p.MaxValue = 1
	}
	return p
}

// Defaulted returns the params with the population-dependent defaults
// applied — the configuration every process of a networked run must
// agree on. Exported for internal/transport, whose key ceremony needs
// the defaulted modulus size and decryption threshold before any Node
// exists.
func (p Params) Defaulted(n int) Params { return p.withDefaults(n) }

// validate checks a defaulted Params against the population size n and
// dimension dim.
func (p Params) validate(n, dim int) error {
	if n < 2 {
		return errors.New("core: need at least 2 participants")
	}
	if dim < 1 {
		return errors.New("core: need at least 1 time step")
	}
	if p.K < 1 || p.K > n {
		return fmt.Errorf("core: k=%d outside [1, %d]", p.K, n)
	}
	if !(p.Epsilon > 0) || math.IsInf(p.Epsilon, 0) {
		return fmt.Errorf("core: epsilon %v must be positive and finite", p.Epsilon)
	}
	if p.Iterations < 1 {
		return fmt.Errorf("core: iterations %d < 1", p.Iterations)
	}
	if p.GossipRounds < 1 {
		return fmt.Errorf("core: gossip rounds %d < 1", p.GossipRounds)
	}
	if p.DecryptThreshold < 1 || p.DecryptThreshold >= n {
		return fmt.Errorf("core: decrypt threshold %d outside [1, %d)", p.DecryptThreshold, n)
	}
	if p.DecryptWindow < 1 {
		return fmt.Errorf("core: decrypt window %d < 1", p.DecryptWindow)
	}
	if !(p.MaxValue > 0) || math.IsInf(p.MaxValue, 0) {
		return fmt.Errorf("core: max value %v must be positive and finite", p.MaxValue)
	}
	if p.Workers < 0 {
		return fmt.Errorf("core: worker count %d must be non-negative", p.Workers)
	}
	if p.InitialCentroids != nil {
		if len(p.InitialCentroids) != p.K {
			return fmt.Errorf("core: %d initial centroids, want %d", len(p.InitialCentroids), p.K)
		}
		for i, c := range p.InitialCentroids {
			if len(c) != dim {
				return fmt.Errorf("core: initial centroid %d has dim %d, want %d", i, len(c), dim)
			}
		}
	}
	if p.ChurnCrashProb < 0 || p.ChurnCrashProb > 1 || p.ChurnRejoinProb < 0 || p.ChurnRejoinProb > 1 {
		return errors.New("core: churn probabilities outside [0,1]")
	}
	if err := p.Faults.Validate(n); err != nil {
		return fmt.Errorf("core: fault plan: %w", err)
	}
	if p.DKG && p.Backend != BackendDamgardJurik {
		return errors.New("core: DKG requires the Damgård–Jurik backend")
	}
	if p.Faults.HasDealerFaults() && !p.DKG && p.DJMaterial == nil {
		return errors.New("core: dealer faults require a DKG run (set Params.DKG)")
	}
	if p.DJMaterial != nil {
		if p.Backend != BackendDamgardJurik {
			return errors.New("core: DJMaterial requires the Damgård–Jurik backend")
		}
		if p.DJMaterial.Parties != n || p.DJMaterial.Threshold != p.DecryptThreshold {
			return fmt.Errorf("core: key material for %d parties / threshold %d, run wants %d / %d",
				p.DJMaterial.Parties, p.DJMaterial.Threshold, n, p.DecryptThreshold)
		}
	}
	if p.InertiaStopThreshold < 0 {
		return fmt.Errorf("core: inertia stop threshold %v negative", p.InertiaStopThreshold)
	}
	if p.InertiaStopThreshold > 0 && !p.TrackInertia {
		return errors.New("core: InertiaStopThreshold requires TrackInertia")
	}
	switch sm := p.Smoothing; sm.Method {
	case SmoothingNone:
	case SmoothingMovingAverage:
		if sm.Window < 1 {
			return fmt.Errorf("core: moving-average smoothing window %d < 1", sm.Window)
		}
	case SmoothingExponential:
		if !(sm.Alpha > 0 && sm.Alpha <= 1) { // refuses NaN too
			return fmt.Errorf("core: exponential smoothing alpha %v outside (0, 1]", sm.Alpha)
		}
	default:
		return fmt.Errorf("core: unknown smoothing method %d", sm.Method)
	}
	return nil
}

// preScaleBits is the halving budget T every contribution is provisioned
// for: a push-sum share (c, h) decodes as Dec(c)·2^(T-h), an integer —
// and exactly the rational intended — as long as no contribution it
// holds was halved more than T times (see internal/gossip). slotLayout
// reserves T bits of every slot for it, and decodeAll refuses a share
// whose exponent overran it.
func (p Params) preScaleBits() uint {
	return uint(p.GossipRounds + 2)
}

// maxCycles bounds a run's schedule: the protocol schedule length per
// iteration (assignment + gossip rounds + decryption window) with a 2x
// slack for churn-induced retries, plus a fixed tail. The simulation
// engines and the networked daemon (Node.MaxCycles) share it, so a
// wedged mesh terminates where the simulation would.
func (p Params) maxCycles() int {
	return 2*p.Iterations*(3+p.GossipRounds+p.DecryptWindow) + 100
}

// noiseEnvelope derives the per-coordinate magnitude bounds of a
// defaulted Params at dimension dim under the given epsilon schedule:
// coordBound bounds any disclosed-aggregate coordinate contribution and
// noiseBound is the clamp applied to noise shares (64 Laplace scales at
// the stingiest iteration: P(|share| > 64b) < 2e-28 per the Laplace tail
// bound, so clamping is statistically invisible while making the
// headroom finite).
func (p Params) noiseEnvelope(dim int, epsSched []float64) (coordBound, noiseBound float64) {
	minEps := epsSched[0]
	for _, e := range epsSched {
		if e < minEps {
			minEps = e
		}
	}
	coordBound = p.MaxValue
	if p.TrackInertia {
		coordBound = max(coordBound, float64(dim)*p.MaxValue*p.MaxValue)
	}
	return coordBound, 64 * p.sensitivity(dim) / minEps
}

// sensitivity returns the L1 sensitivity of one iteration's disclosure
// at dimension dim: the per-cluster sums and count (dp.SumSensitivity)
// and, when the inertia aggregate is tracked, the dim·MaxValue² one
// individual can move it by.
func (p Params) sensitivity(dim int) float64 {
	sens := dp.SumSensitivity(dim, p.MaxValue)
	if p.TrackInertia {
		sens += float64(dim) * p.MaxValue * p.MaxValue
	}
	return sens
}

// slotLayout is a run's packing of its encrypted side over a plaintext
// space of plainBits usable bits. Coordinates travel need bits apart,
// the bits one disclosed coordinate needs: the worst-case aggregate
// population · (bound + clamped noise share) · 2^frac · 2^T, plus a sign
// bit and a guard bit. Every such aggregate then has magnitude at most
// 2^(need−3), inside the layout's 2^(need−2), and it is refused when the
// plaintext space cannot hold even one coordinate: the aggregate must
// stay below M/2. need splits into one contribution's magnitude bits —
// the bound PackInto enforces on a fresh encoding — and the aggregation
// headroom above them.
func slotLayout(plainBits, n int, bound, noiseBound float64, fracBits, preScale uint) (*fixedpoint.SlotLayout, error) {
	worst := float64(n) * (bound + noiseBound)
	need := int(math.Ceil(math.Log2(worst))) + 1 + int(fracBits) + int(preScale) + 2
	if plainBits < need {
		return nil, fmt.Errorf("core: plaintext space too small: need %d bits, modulus has %d — increase ModulusBits or Degree, or reduce GossipRounds/FracBits", need, plainBits)
	}
	mag := max(int(math.Ceil(math.Log2(bound+noiseBound)))+1+int(fracBits), 1)
	return fixedpoint.NewSlotLayout(plainBits, uint(mag), uint(max(need-1-mag, 1)))
}

// PackedSlots reports the coordinates per ciphertext a run uses over a
// plaintext space of plainBits usable bits, for a population of n
// participants with series of the given dimension — the packing factor,
// exported for the cost projections (internal/costmodel, experiment E5).
// population.bind derives the actual layout from the identical rule.
func PackedSlots(plainBits, n, dim int, params Params) (int, error) {
	p, coordBound, noiseBound, err := envelope(n, dim, params)
	if err != nil {
		return 0, err
	}
	l, err := slotLayout(plainBits, n, coordBound, noiseBound, p.FracBits, p.preScaleBits())
	if err != nil {
		return 0, err
	}
	return l.Slots(), nil
}

// envelope defaults and validates params for n participants with series
// of the given dimension, and derives the magnitude bounds
// population.bind sizes its layout from.
func envelope(n, dim int, params Params) (p Params, coordBound, noiseBound float64, err error) {
	p = params.withDefaults(n)
	if err := p.validate(n, dim); err != nil {
		return p, 0, 0, err
	}
	epsSched, err := p.Strategy.Allocate(p.Epsilon, p.Iterations)
	if err != nil {
		return p, 0, 0, err
	}
	coordBound, noiseBound = p.noiseEnvelope(dim, epsSched)
	return p, coordBound, noiseBound, nil
}

// cipherRing adapts a CipherSuite to the gossip.Ring interface so the
// push-sum state machine runs over ciphertexts, in place on both
// backends.
type cipherRing struct {
	suite CipherSuite
}

// Add implements gossip.Ring.
func (r cipherRing) Add(acc *Cipher, v Cipher) { r.suite.AddInPlace(*acc, v) }

// AddAll implements gossip.Ring.
func (r cipherRing) AddAll(acc *Cipher, vs []Cipher) { r.suite.AddAllInPlace(*acc, vs) }

// Double implements gossip.Ring.
func (r cipherRing) Double(a *Cipher, k uint) { r.suite.DoubleInPlace(*a, k) }

// Set implements gossip.Ring: an empty slot gets a one-cipher vector of
// its own, sized so the in-place operations never grow it. Copying a
// value is not an operation: nothing is counted.
func (r cipherRing) Set(dst *Cipher, src Cipher) {
	if *dst == nil {
		v, err := r.suite.NewCipherVector(1)
		if err != nil {
			panic(fmt.Sprintf("core: cipher ring: %v", err))
		}
		*dst = v[0]
	}
	(*dst).Set(src)
}

var _ gossip.Ring[Cipher] = cipherRing{}
