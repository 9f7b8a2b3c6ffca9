package core

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sort"

	"chiaroscuro/internal/crypto/damgardjurik"
	"chiaroscuro/internal/crypto/dkg"
	"chiaroscuro/internal/simnet"
)

// keyceremony.go runs the Pedersen-style distributed key generation of
// internal/crypto/dkg for the Damgård–Jurik backend and packages its
// output as run material. The in-process engines drive the whole
// ceremony here (Params.DKG); the networked daemons run the same state
// machines over TCP (internal/transport) and hand each process its own
// share as Params.DJMaterial. Either way the resulting deployment never
// concentrates the decryption exponent in one place — the trusted
// dealer of NewDamgardJurikSuite survives only as the property-test
// oracle the DKG suite is checked against.

// DJKeyMaterial is the portable output of a Damgård–Jurik key ceremony:
// the public key parameters every participant agrees on plus the key
// shares this process holds. Shares is indexed by party (entry i is
// party i+1's share); a networked process holds only its own share and
// leaves every other entry's Value nil — partial decryption for those
// parties is answered over the wire, not locally.
type DJKeyMaterial struct {
	N         *big.Int
	S         int
	Parties   int
	Threshold int
	// Scale is the public scale σ of the shared secret (1 for a fresh
	// ceremony, multiplied by Δ_old per reshare); Combine cancels it.
	Scale  *big.Int
	Shares []damgardjurik.KeyShare

	// Qualified and Disqualified are the ceremony's dealer verdicts
	// (1-based dealer ids = participant id + 1), identical on every
	// honest node: Disqualified accumulates dealers expelled across
	// restarts, Qualified is the founder set that dealt the final key.
	Qualified    []int
	Disqualified []int
}

// behaviourOf maps a simnet dealer-fault kind to the dkg ceremony
// behaviour that scripts it.
func behaviourOf(k simnet.FaultKind) dkg.Behaviour {
	switch k {
	case simnet.FaultDealerBadShare:
		return dkg.BehaviourBadShare
	case simnet.FaultDealerEquivocate:
		return dkg.BehaviourEquivocate
	case simnet.FaultDealerSilent:
		return dkg.BehaviourSilent
	}
	return dkg.BehaviourHonest
}

// ceremonyRand derives the deterministic coefficient randomness of one
// ceremony participant, keyed so restarts after a disqualification draw
// fresh polynomials while the whole trajectory stays a pure function of
// the run seed.
func ceremonyRand(seed int64, attempt int) dkg.RandFunc {
	return func(party int) io.Reader {
		return dkg.NewDeterministicRand(fmt.Sprintf("chiaroscuro-core-dkg-a%d-p%d", attempt, party), seed)
	}
}

// RunDJKeyCeremony runs the full fresh DKG among `parties` participants
// (every participant is a founder dealer) and returns the dense key
// material. The plan's dealer faults (badshare/equivocate/silentdealer)
// are scripted onto the matching dealers; a disqualification aborts the
// attempt, the genesis exponent is re-split among the qualified
// founders only, and the ceremony re-runs with all `parties` receivers
// — the liveness path: a population with up to parties−1 byzantine
// dealers still converges on a working key, deterministically in
// (modulusBits, degree, parties, threshold, seed, plan).
func RunDJKeyCeremony(modulusBits, degree, parties, threshold int, seed int64, plan *simnet.Plan) (*DJKeyMaterial, error) {
	p, q, err := damgardjurik.FixturePrimes(modulusBits)
	if err != nil {
		return nil, err
	}
	byz := map[int]dkg.Behaviour{}
	for node := 0; node < parties; node++ {
		if f := plan.DealerFaultOf(node); f != nil {
			byz[node+1] = behaviourOf(f.Kind)
		}
	}
	dealers := make([]int, parties)
	for i := range dealers {
		dealers[i] = i + 1
	}
	var disqualified []int
	for attempt := 1; attempt <= parties; attempt++ {
		if len(dealers) == 0 {
			break
		}
		pieces, pk, err := dkg.GenesisPieces(p, q, degree, len(dealers), seed+int64(attempt-1)*0x5851F42D4C957F2D)
		if err != nil {
			return nil, err
		}
		secrets := make(map[int]*big.Int, len(dealers))
		for i, d := range dealers {
			secrets[d] = pieces[i]
		}
		res, err := dkg.RunFreshCeremony(pk, parties, threshold, dealers, secrets, ceremonyRand(seed, attempt), byz)
		if errors.Is(err, dkg.ErrDisqualified) {
			disqualified = append(disqualified, res.Disqualified...)
			dealers = res.Qualified
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("core: key ceremony: %w", err)
		}
		key := res.Results[0].Key
		m := &DJKeyMaterial{
			N: new(big.Int).Set(key.N), S: key.S,
			Parties: parties, Threshold: threshold,
			Scale:     key.Scale(),
			Shares:    make([]damgardjurik.KeyShare, parties),
			Qualified: res.Qualified,
		}
		for i, r := range res.Results {
			m.Shares[i] = r.Share
		}
		sort.Ints(disqualified)
		m.Disqualified = disqualified
		return m, nil
	}
	return nil, errors.New("core: key ceremony exhausted every founder set without qualifying")
}

// DJMaterialFromResult packages one participant's ceremony Result as
// sparse run material: only this participant's own share is populated,
// which is exactly what a networked daemon holds after the wire
// ceremony. Dealer verdicts are carried over so diagnostics agree with
// the in-process material.
func DJMaterialFromResult(res *dkg.Result) (*DJKeyMaterial, error) {
	if res == nil || res.Key == nil || res.Share.Value == nil {
		return nil, errors.New("core: ceremony result without a key")
	}
	m := &DJKeyMaterial{
		N: new(big.Int).Set(res.Key.N), S: res.Key.S,
		Parties: res.Key.Parties, Threshold: res.Key.Threshold,
		Scale:        res.Key.Scale(),
		Shares:       make([]damgardjurik.KeyShare, res.Key.Parties),
		Qualified:    res.Qualified,
		Disqualified: res.Disqualified,
	}
	for i := range m.Shares {
		m.Shares[i] = damgardjurik.KeyShare{Index: i + 1}
	}
	m.Shares[res.Share.Index-1] = res.Share
	return m, nil
}

// NewDamgardJurikSuiteFromMaterial wraps ceremony material as a
// CipherSuite. The threshold key is reconstructed from public
// parameters only; partial decryption is available exactly for the
// parties whose shares the material holds.
func NewDamgardJurikSuiteFromMaterial(m *DJKeyMaterial) (CipherSuite, error) {
	if m == nil {
		return nil, errors.New("core: nil key material")
	}
	if len(m.Shares) != m.Parties {
		return nil, fmt.Errorf("core: key material carries %d shares for %d parties", len(m.Shares), m.Parties)
	}
	tk, err := damgardjurik.NewThresholdKeyPublic(m.N, m.S, m.Parties, m.Threshold, m.Scale)
	if err != nil {
		return nil, err
	}
	shares := make([]damgardjurik.KeyShare, len(m.Shares))
	copy(shares, m.Shares)
	return newDJSuite(tk, shares)
}

// NewDamgardJurikDKGSuite is the engine-run entry point (Params.DKG):
// it runs the whole ceremony in-process — every party's state machine,
// including any scripted dealer faults and the restart after their
// disqualification — and wraps the dense material as a CipherSuite.
func NewDamgardJurikDKGSuite(modulusBits, degree, parties, threshold int, seed int64, plan *simnet.Plan) (CipherSuite, error) {
	m, err := RunDJKeyCeremony(modulusBits, degree, parties, threshold, seed, plan)
	if err != nil {
		return nil, err
	}
	return NewDamgardJurikSuiteFromMaterial(m)
}
