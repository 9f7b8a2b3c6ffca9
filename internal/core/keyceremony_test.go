package core

import (
	"math/big"
	"reflect"
	"strings"
	"testing"

	"chiaroscuro/internal/crypto/damgardjurik"
	"chiaroscuro/internal/simnet"
)

// TestDKGRunMatchesDealerRun is the engine-level oracle check: a run
// keyed by the distributed ceremony must disclose a trajectory
// bit-identical to the dealer-keyed run at the same seed — decryptions
// are exact, so the key's provenance cannot leak into the plaintexts.
func TestDKGRunMatchesDealerRun(t *testing.T) {
	data := blobs(12, 4, 2)
	base := Params{
		K: 2, Epsilon: 10, Iterations: 2, Seed: 9,
		GossipRounds: 6, DecryptThreshold: 3,
		Backend: BackendDamgardJurik, ModulusBits: 128,
	}
	dealer, err := Run(data, base)
	if err != nil {
		t.Fatal(err)
	}
	viaDKG := base
	viaDKG.DKG = true
	ceremony, err := Run(data, viaDKG)
	if err != nil {
		t.Fatal(err)
	}
	if len(dealer.Iterations) != len(ceremony.Iterations) {
		t.Fatalf("iteration counts differ: %d vs %d", len(dealer.Iterations), len(ceremony.Iterations))
	}
	for i := range dealer.Iterations {
		a, b := dealer.Iterations[i], ceremony.Iterations[i]
		if !reflect.DeepEqual(a.PerturbedCentroids, b.PerturbedCentroids) ||
			!reflect.DeepEqual(a.PerturbedCounts, b.PerturbedCounts) {
			t.Fatalf("iteration %d: DKG-keyed disclosure diverges from dealer-keyed", i)
		}
	}
	if !reflect.DeepEqual(dealer.FinalCentroids, ceremony.FinalCentroids) {
		t.Fatal("final centroids diverge")
	}
}

// TestDealerFaultVerdictsAndLiveness pins the byzantine-dealer scenario
// semantics end to end: the scripted faults produce the expected
// deterministic disqualification verdicts, the ceremony restarts with
// the qualified founders, and the clustering run over the re-keyed
// deployment completes for every participant with the same disclosures
// as a fault-free run (the key never touches the plaintexts).
func TestDealerFaultVerdictsAndLiveness(t *testing.T) {
	const parties, threshold, seed = 12, 3, 9
	plan, err := simnet.ParsePlan("badshare=1;equivocate=3;silentdealer=5")
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunDJKeyCeremony(128, 1, parties, threshold, seed, plan)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Disqualified, []int{2, 4, 6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("disqualified %v, want %v (dealer id = node+1)", got, want)
	}
	if len(m.Qualified) != parties-3 {
		t.Fatalf("qualified %v, want the %d honest founders", m.Qualified, parties-3)
	}
	for _, d := range m.Disqualified {
		for _, q := range m.Qualified {
			if d == q {
				t.Fatalf("dealer %d both qualified and disqualified", d)
			}
		}
	}
	// Deterministic replay: the same (config, seed, plan) yields the
	// same shares, including across the restart.
	m2, err := RunDJKeyCeremony(128, 1, parties, threshold, seed, plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Shares {
		if m.Shares[i].Value.Cmp(m2.Shares[i].Value) != 0 {
			t.Fatalf("share %d not replayed identically", i+1)
		}
	}

	data := blobs(parties, 4, 2)
	base := Params{
		K: 2, Epsilon: 10, Iterations: 2, Seed: seed,
		GossipRounds: 6, DecryptThreshold: threshold,
		Backend: BackendDamgardJurik, ModulusBits: 128, DKG: true,
	}
	clean, err := Run(data, base)
	if err != nil {
		t.Fatal(err)
	}
	faulty := base
	faulty.Faults = plan
	tr, err := Run(data, faulty)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Completed != parties {
		t.Fatalf("liveness: %d of %d participants completed under dealer faults", tr.Completed, parties)
	}
	if !reflect.DeepEqual(clean.FinalCentroids, tr.FinalCentroids) {
		t.Fatal("dealer faults changed the disclosed trajectory")
	}
}

// TestDealerFaultsRequireDKG pins the validation seam: a plan with
// dealer clauses is meaningless without a ceremony to corrupt.
func TestDealerFaultsRequireDKG(t *testing.T) {
	plan, err := simnet.ParsePlan("badshare=0")
	if err != nil {
		t.Fatal(err)
	}
	data := blobs(8, 3, 2)
	_, err = Run(data, Params{
		K: 2, Epsilon: 5, Iterations: 1, Seed: 1,
		Backend: BackendDamgardJurik, ModulusBits: 128, Faults: plan,
	})
	if err == nil || !strings.Contains(err.Error(), "dealer faults require") {
		t.Fatalf("dealer faults without DKG accepted: %v", err)
	}
	if _, err := Run(data, Params{
		K: 2, Epsilon: 5, Iterations: 1, Seed: 1, DKG: true,
	}); err == nil || !strings.Contains(err.Error(), "Damgård–Jurik backend") {
		t.Fatalf("DKG on the plain backend accepted: %v", err)
	}
}

// TestDJMaterialSparseShares pins the networked-daemon share model: a
// suite built from material holding only one share answers partial
// decryption for that party alone, while the full pipeline (encrypt,
// marshal, partials from a quorum, combine) still opens ciphertexts.
func TestDJMaterialSparseShares(t *testing.T) {
	const parties, threshold = 5, 2
	dense, err := RunDJKeyCeremony(96, 1, parties, threshold, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	sparse := *dense
	sparse.Shares = make([]damgardjurik.KeyShare, parties)
	for i := range sparse.Shares {
		sparse.Shares[i] = damgardjurik.KeyShare{Index: i + 1}
	}
	sparse.Shares[2] = dense.Shares[2] // party 3's share only
	cs, err := NewDamgardJurikSuiteFromMaterial(&sparse)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.(interface{ Close() }).Close()
	c, err := cs.Encrypt(big.NewInt(777))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.PartialDecrypt(3, c); err != nil {
		t.Fatalf("own share refused: %v", err)
	}
	if _, err := cs.PartialDecrypt(1, c); err == nil || !strings.Contains(err.Error(), "no key share") {
		t.Fatalf("foreign share answered locally: %v", err)
	}
	if _, err := cs.PartialDecrypt(parties+1, c); err == nil {
		t.Fatal("out-of-range party accepted")
	}

	full, err := NewDamgardJurikSuiteFromMaterial(dense)
	if err != nil {
		t.Fatal(err)
	}
	defer full.(interface{ Close() }).Close()
	want := []int64{0, 1, 424242}
	ciphers := make([]Cipher, len(want))
	for i, v := range want {
		if ciphers[i], err = full.Encrypt(big.NewInt(v)); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := full.AppendCipherVector(nil, ciphers)
	if err != nil {
		t.Fatal(err)
	}
	back, err := full.NewCipherVector(len(ciphers))
	if err != nil {
		t.Fatal(err)
	}
	if err := full.UnmarshalCipherVectorInto(back, buf); err != nil {
		t.Fatal(err)
	}
	parts := make([][]Partial, threshold)
	for p := 1; p <= threshold; p++ {
		row := make([]Partial, len(back))
		for i, c := range back {
			if row[i], err = full.PartialDecrypt(p, c); err != nil {
				t.Fatal(err)
			}
		}
		pbuf, err := full.AppendPartialValues(nil, row)
		if err != nil {
			t.Fatal(err)
		}
		if parts[p-1], err = full.UnmarshalPartialValues(p, pbuf); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range want {
		got, err := full.Combine([]Partial{parts[0][i], parts[1][i]})
		if err != nil {
			t.Fatal(err)
		}
		if got.Int64() != v {
			t.Fatalf("wire round trip decrypts %v, want %v", got, v)
		}
	}
}

// TestConfigFingerprintMatchesNode pins the pre-ceremony handshake
// digest: ConfigFingerprint over raw (data, params) must equal the
// Fingerprint of a Node built from the identical configuration.
func TestConfigFingerprintMatchesNode(t *testing.T) {
	data := blobs(8, 3, 2)
	p := Params{K: 2, Epsilon: 5, Iterations: 2, Seed: 3}
	want, err := ConfigFingerprint(data, p)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := NewNode(data, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if got := nd.Fingerprint(); got != want {
		t.Fatalf("ConfigFingerprint %#x != Node.Fingerprint %#x", want, got)
	}
	p2 := p
	p2.Seed = 4
	other, err := ConfigFingerprint(data, p2)
	if err != nil {
		t.Fatal(err)
	}
	if other == want {
		t.Fatal("fingerprint insensitive to seed")
	}
}
