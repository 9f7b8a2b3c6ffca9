package dkg

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"testing"

	"chiaroscuro/internal/crypto/damgardjurik"
)

// fixtureBits keeps the matrix fast; the 96-bit fixture modulus is
// plenty for protocol correctness (the crypto package's own tests
// cover large moduli) and shares the primes with the dealer oracle.
const fixtureBits = 96

// detRands gives every participant an independent deterministic
// coefficient stream, so ceremonies replay bit-identically.
func detRands(label string, seed int64) RandFunc {
	return func(party int) io.Reader {
		return NewDeterministicRand(fmt.Sprintf("%s-party-%d", label, party), seed)
	}
}

// runFresh drives an all-honest fresh ceremony over the fixture
// primes and returns every node's result.
func runFresh(t *testing.T, parties, threshold, s int, seed int64) *CeremonyResult {
	t.Helper()
	p, q, err := damgardjurik.FixturePrimes(fixtureBits)
	if err != nil {
		t.Fatalf("fixture primes: %v", err)
	}
	pieces, pk, err := GenesisPieces(p, q, s, parties, seed)
	if err != nil {
		t.Fatalf("genesis: %v", err)
	}
	dealers := make([]int, parties)
	secrets := make(map[int]*big.Int, parties)
	for i := range dealers {
		dealers[i] = i + 1
		secrets[i+1] = pieces[i]
	}
	cr, err := RunFreshCeremony(pk, parties, threshold, dealers, secrets, detRands("fresh", seed), nil)
	if err != nil {
		t.Fatalf("fresh ceremony (n=%d w=%d s=%d): %v", parties, threshold, s, err)
	}
	return cr
}

// quorums enumerates every index subset of exactly size k from 1..n.
func quorums(n, k int) [][]int {
	var out [][]int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := start; i <= n; i++ {
			rec(i+1, append(cur, i))
		}
	}
	rec(1, nil)
	return out
}

// decryptWith opens c through the given key with exactly the quorum's
// shares, via both Combine and CombineNaive, asserting the two agree.
func decryptWith(t *testing.T, key *damgardjurik.ThresholdKey, shares []damgardjurik.KeyShare, quorum []int, c *big.Int) *big.Int {
	t.Helper()
	parts := make([]damgardjurik.PartialDecryption, 0, len(quorum))
	for _, idx := range quorum {
		var share damgardjurik.KeyShare
		for _, sh := range shares {
			if sh.Index == idx {
				share = sh
			}
		}
		if share.Value == nil {
			t.Fatalf("no share for quorum index %d", idx)
		}
		pd, err := key.PartialDecrypt(share, c)
		if err != nil {
			t.Fatalf("partial decrypt (index %d): %v", idx, err)
		}
		parts = append(parts, pd)
	}
	fast, err := key.Combine(parts)
	if err != nil {
		t.Fatalf("combine (quorum %v): %v", quorum, err)
	}
	naive, err := key.CombineNaive(parts)
	if err != nil {
		t.Fatalf("combine naive (quorum %v): %v", quorum, err)
	}
	if fast.Cmp(naive) != 0 {
		t.Fatalf("Combine %v != CombineNaive %v (quorum %v)", fast, naive, quorum)
	}
	return fast
}

// thresholdEdges picks the threshold matrix for a population: the two
// edges plus the smallest interesting interior value.
func thresholdEdges(n int) []int {
	set := map[int]bool{}
	var out []int
	for _, w := range []int{1, 2, n - 1} {
		if w >= 1 && w <= n && !set[w] {
			set[w] = true
			out = append(out, w)
		}
	}
	return out
}

// TestDKGOracleMatrix is the headline property: across n∈{3,5,7},
// threshold edges and s∈{1,2}, a DKG-derived key plus ANY quorum of
// its shares decrypts bit-identically — through both Combine and
// CombineNaive — to a dealer-dealt key over the same primes, and both
// recover the exact plaintext.
func TestDKGOracleMatrix(t *testing.T) {
	p, q, err := damgardjurik.FixturePrimes(fixtureBits)
	if err != nil {
		t.Fatalf("fixture primes: %v", err)
	}
	for _, n := range []int{3, 5, 7} {
		for _, w := range thresholdEdges(n) {
			for _, s := range []int{1, 2} {
				t.Run(fmt.Sprintf("n=%d/w=%d/s=%d", n, w, s), func(t *testing.T) {
					oracle, oracleShares, err := damgardjurik.NewThresholdKeyFromPrimes(nil, p, q, s, n, w)
					if err != nil {
						t.Fatalf("dealer oracle: %v", err)
					}
					cr := runFresh(t, n, w, s, int64(1000*n+10*w+s))
					key := cr.Results[0].Key
					if key.Scale().Cmp(big.NewInt(1)) != 0 {
						t.Fatalf("fresh key scale = %v, want 1", key.Scale())
					}
					shares := make([]damgardjurik.KeyShare, n)
					for i, r := range cr.Results {
						shares[i] = r.Share
					}
					ns := oracle.PlaintextModulus()
					msgs := []*big.Int{
						big.NewInt(0),
						big.NewInt(1),
						big.NewInt(424242),
						new(big.Int).Sub(ns, big.NewInt(1)),
					}
					for _, m := range msgs {
						c, err := oracle.Encrypt(nil, m)
						if err != nil {
							t.Fatalf("encrypt: %v", err)
						}
						oracleParts := make([]damgardjurik.PartialDecryption, w)
						for i := 0; i < w; i++ {
							pd, err := oracle.PartialDecrypt(oracleShares[i], c)
							if err != nil {
								t.Fatalf("oracle partial: %v", err)
							}
							oracleParts[i] = pd
						}
						want, err := oracle.Combine(oracleParts)
						if err != nil {
							t.Fatalf("oracle combine: %v", err)
						}
						if want.Cmp(new(big.Int).Mod(m, ns)) != 0 {
							t.Fatalf("oracle decrypted %v, want %v", want, m)
						}
						for _, quorum := range quorums(n, w) {
							got := decryptWith(t, key, shares, quorum, c)
							if got.Cmp(want) != 0 {
								t.Errorf("quorum %v: DKG decryption %v != oracle %v (m=%v)", quorum, got, want, m)
							}
						}
					}
				})
			}
		}
	}
}

// TestDKGDeterministicReplay: the same seed replays to bit-identical
// shares — the property core's ceremony restarts and the simnet
// scenarios rely on.
func TestDKGDeterministicReplay(t *testing.T) {
	a := runFresh(t, 5, 3, 1, 7)
	b := runFresh(t, 5, 3, 1, 7)
	for i := range a.Results {
		if a.Results[i].Share.Value.Cmp(b.Results[i].Share.Value) != 0 {
			t.Fatalf("share %d differs across replays", i+1)
		}
	}
	c := runFresh(t, 5, 3, 1, 8)
	same := true
	for i := range a.Results {
		same = same && a.Results[i].Share.Value.Cmp(c.Results[i].Share.Value) == 0
	}
	if same {
		t.Fatal("different seeds replayed identical shares")
	}
}

// reshareFrom drives an all-honest reshare and sanity-checks verdicts.
func reshareFrom(t *testing.T, pk *damgardjurik.PublicKey, old OldKey, survivors []damgardjurik.KeyShare, newParties, newThreshold int, seed int64) *CeremonyResult {
	t.Helper()
	cr, err := RunReshareCeremony(pk, old, survivors, newParties, newThreshold, detRands("reshare", seed), nil)
	if err != nil {
		t.Fatalf("reshare ceremony: %v", err)
	}
	if len(cr.Disqualified) != 0 {
		t.Fatalf("honest reshare disqualified %v", cr.Disqualified)
	}
	return cr
}

// TestReshareRoundTrip: a ciphertext encrypted before any reshare
// still decrypts to the exact plaintext after (a) a reshare from a
// DKG-derived key, (b) a chained second reshare, and (c) a reshare
// whose input is a dealer-dealt key (the oracle path). Covers the
// losing-up-to-n-threshold-1-nodes story: survivors re-key and keep
// decrypting.
func TestReshareRoundTrip(t *testing.T) {
	p, q, err := damgardjurik.FixturePrimes(fixtureBits)
	if err != nil {
		t.Fatalf("fixture primes: %v", err)
	}
	cr := runFresh(t, 5, 3, 1, 11)
	key := cr.Results[0].Key
	pk := &key.PublicKey
	m := big.NewInt(987654321)
	c, err := key.Encrypt(nil, m)
	if err != nil {
		t.Fatalf("encrypt: %v", err)
	}

	// (a) lose nodes 3 and 5 (n-threshold-1 = 1 may die with no
	// ceremony at all; with 2 dead a reshare from the >=threshold
	// survivors re-keys the population back to strength 5).
	survivors := []damgardjurik.KeyShare{cr.Results[0].Share, cr.Results[1].Share, cr.Results[3].Share}
	old := OldKey{Threshold: key.Threshold, Delta: key.Delta(), Scale: key.Scale()}
	re := reshareFrom(t, pk, old, survivors, 5, 3, 21)
	key2 := re.Results[0].Key
	wantScale := new(big.Int).Mul(key.Scale(), key.Delta())
	if key2.Scale().Cmp(wantScale) != 0 {
		t.Fatalf("reshared scale = %v, want %v", key2.Scale(), wantScale)
	}
	shares2 := make([]damgardjurik.KeyShare, len(re.Results))
	for i, r := range re.Results {
		shares2[i] = r.Share
	}
	for _, quorum := range [][]int{{1, 2, 3}, {3, 4, 5}, {1, 3, 5}} {
		if got := decryptWith(t, key2, shares2, quorum, c); got.Cmp(m) != 0 {
			t.Fatalf("after reshare, quorum %v decrypted %v, want %v", quorum, got, m)
		}
	}

	// (b) chain a second reshare onto a smaller deployment.
	old2 := OldKey{Threshold: key2.Threshold, Delta: key2.Delta(), Scale: key2.Scale()}
	survivors2 := []damgardjurik.KeyShare{shares2[1], shares2[2], shares2[4]}
	re2 := reshareFrom(t, pk, old2, survivors2, 4, 2, 31)
	key3 := re2.Results[0].Key
	shares3 := make([]damgardjurik.KeyShare, len(re2.Results))
	for i, r := range re2.Results {
		shares3[i] = r.Share
	}
	for _, quorum := range [][]int{{1, 2}, {3, 4}, {2, 4}} {
		if got := decryptWith(t, key3, shares3, quorum, c); got.Cmp(m) != 0 {
			t.Fatalf("after chained reshare, quorum %v decrypted %v, want %v", quorum, got, m)
		}
	}

	// (c) reshare a dealer-dealt key: the oracle path feeds the
	// ceremony, proving dealt and DKG'd shares are interchangeable.
	oracle, oracleShares, err := damgardjurik.NewThresholdKeyFromPrimes(nil, p, q, 1, 4, 2)
	if err != nil {
		t.Fatalf("dealer oracle: %v", err)
	}
	cOracle, err := oracle.Encrypt(nil, m)
	if err != nil {
		t.Fatalf("encrypt: %v", err)
	}
	oldO := OldKey{Threshold: oracle.Threshold, Delta: oracle.Delta(), Scale: oracle.Scale()}
	reO := reshareFrom(t, &oracle.PublicKey, oldO, oracleShares[1:3], 3, 2, 41)
	keyO := reO.Results[0].Key
	sharesO := make([]damgardjurik.KeyShare, len(reO.Results))
	for i, r := range reO.Results {
		sharesO[i] = r.Share
	}
	if got := decryptWith(t, keyO, sharesO, []int{1, 3}, cOracle); got.Cmp(m) != 0 {
		t.Fatalf("reshared dealer key decrypted %v, want %v", got, m)
	}
}

// TestByzantineDealerVerdicts: each scripted fault class produces the
// same deterministic disqualification verdict at every node, the fresh
// ceremony aborts, and the re-split re-run among the qualified dealers
// recovers a working key — the liveness path core drives.
func TestByzantineDealerVerdicts(t *testing.T) {
	p, q, err := damgardjurik.FixturePrimes(fixtureBits)
	if err != nil {
		t.Fatalf("fixture primes: %v", err)
	}
	cases := []struct {
		name string
		b    Behaviour
	}{
		{"bad-share", BehaviourBadShare},
		{"equivocate", BehaviourEquivocate},
		{"silent", BehaviourSilent},
	}
	const parties, threshold, s, seed = 5, 3, 1, 99
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pieces, pk, err := GenesisPieces(p, q, s, parties, seed)
			if err != nil {
				t.Fatalf("genesis: %v", err)
			}
			dealers := make([]int, parties)
			secrets := make(map[int]*big.Int, parties)
			for i := range dealers {
				dealers[i] = i + 1
				secrets[i+1] = pieces[i]
			}
			cr, err := RunFreshCeremony(pk, parties, threshold, dealers, secrets,
				detRands(tc.name, seed), map[int]Behaviour{2: tc.b})
			if !errors.Is(err, ErrDisqualified) {
				t.Fatalf("ceremony error = %v, want ErrDisqualified", err)
			}
			if len(cr.Disqualified) != 1 || cr.Disqualified[0] != 2 {
				t.Fatalf("disqualified = %v, want [2]", cr.Disqualified)
			}
			if len(cr.Qualified) != parties-1 {
				t.Fatalf("qualified = %v, want the other %d dealers", cr.Qualified, parties-1)
			}

			// Restart: re-split the genesis among the qualified dealers
			// only; every node (including the disqualified one) still
			// receives shares and the key decrypts.
			rePieces, _, err := GenesisPieces(p, q, s, len(cr.Qualified), seed+1)
			if err != nil {
				t.Fatalf("genesis re-split: %v", err)
			}
			reSecrets := make(map[int]*big.Int, len(cr.Qualified))
			for i, d := range cr.Qualified {
				reSecrets[d] = rePieces[i]
			}
			cr2, err := RunFreshCeremony(pk, parties, threshold, cr.Qualified, reSecrets,
				detRands(tc.name+"-retry", seed), nil)
			if err != nil {
				t.Fatalf("restarted ceremony: %v", err)
			}
			key := cr2.Results[0].Key
			shares := make([]damgardjurik.KeyShare, parties)
			for i, r := range cr2.Results {
				shares[i] = r.Share
			}
			m := big.NewInt(31337)
			c, err := key.Encrypt(nil, m)
			if err != nil {
				t.Fatalf("encrypt: %v", err)
			}
			if got := decryptWith(t, key, shares, []int{1, 2, 5}, c); got.Cmp(m) != 0 {
				t.Fatalf("restarted key decrypted %v, want %v", got, m)
			}
		})
	}
}

// TestJustificationRehabilitates: a dealer that misdeals ONE share but
// answers the complaint with a valid justification stays qualified,
// and the complainer adopts the justified share — exercised by driving
// the state machines directly (the scripted BehaviourBadShare withholds
// the justification, so this path needs a manual drive).
func TestJustificationRehabilitates(t *testing.T) {
	p, q, err := damgardjurik.FixturePrimes(fixtureBits)
	if err != nil {
		t.Fatalf("fixture primes: %v", err)
	}
	const parties, threshold, s, seed = 4, 2, 1, 55
	pieces, pk, err := GenesisPieces(p, q, s, parties, seed)
	if err != nil {
		t.Fatalf("genesis: %v", err)
	}
	dealers := []int{1, 2, 3, 4}
	nodes := make([]*Node, parties)
	for j := 1; j <= parties; j++ {
		nd, err := NewNode(Config{
			PK: pk, Parties: parties, Threshold: threshold,
			Index: j, Dealers: dealers, DealerIndex: j, Secret: pieces[j-1],
			Rand: NewDeterministicRand(fmt.Sprintf("rehab-%d", j), seed),
		})
		if err != nil {
			t.Fatalf("node %d: %v", j, err)
		}
		nodes[j-1] = nd
	}
	for _, nd := range nodes {
		deals := nd.Deals()
		if nd.cfg.DealerIndex == 2 {
			// Dealer 2 misdeals to receiver 3.
			deals[2].Share = new(big.Int).Add(deals[2].Share, big.NewInt(5))
		}
		for j := 1; j <= parties; j++ {
			if err := nodes[j-1].HandleDeal(deals[j-1]); err != nil {
				t.Fatalf("deal: %v", err)
			}
		}
	}
	for _, nd := range nodes {
		r := nd.Response()
		if nd.cfg.Index == 3 && !r.Verdicts[1].Complaint {
			t.Fatal("receiver 3 did not complain about the bad share")
		}
		for _, peer := range nodes {
			if peer != nd {
				if err := peer.HandleResponse(r); err != nil {
					t.Fatalf("response: %v", err)
				}
			}
		}
	}
	for _, nd := range nodes {
		j, err := nd.Justification()
		if err != nil {
			t.Fatalf("justification: %v", err)
		}
		for _, peer := range nodes {
			if err := peer.HandleJustification(j); err != nil {
				t.Fatalf("handle justification: %v", err)
			}
		}
	}
	shares := make([]damgardjurik.KeyShare, parties)
	var key *damgardjurik.ThresholdKey
	for i, nd := range nodes {
		res, err := nd.Finish()
		if err != nil {
			t.Fatalf("finish node %d: %v", i+1, err)
		}
		if len(res.Disqualified) != 0 {
			t.Fatalf("node %d disqualified %v despite valid justification", i+1, res.Disqualified)
		}
		shares[i] = res.Share
		key = res.Key
	}
	m := big.NewInt(2026)
	c, err := key.Encrypt(nil, m)
	if err != nil {
		t.Fatalf("encrypt: %v", err)
	}
	// The rehabilitated quorum includes receiver 3's adopted share.
	if got := decryptWith(t, key, shares, []int{2, 3}, c); got.Cmp(m) != 0 {
		t.Fatalf("decrypted %v, want %v", got, m)
	}
}

// handDrive runs a fresh four-party, threshold-two ceremony over the
// fixture primes by driving the state machines directly. tamper, when
// set, edits each deal before its receiver handles it; after edits the
// caller's deal once handled. Dealers in mute withhold their
// justification. It returns every node's response and Finish outcome.
func handDrive(t *testing.T, tamper, after func(*Deal), mute map[int]bool) ([]*Response, []*Result, []error) {
	t.Helper()
	p, q, err := damgardjurik.FixturePrimes(fixtureBits)
	if err != nil {
		t.Fatalf("fixture primes: %v", err)
	}
	const parties, threshold, s, seed = 4, 2, 1, 55
	pieces, pk, err := GenesisPieces(p, q, s, parties, seed)
	if err != nil {
		t.Fatalf("genesis: %v", err)
	}
	nodes := make([]*Node, parties)
	for j := 1; j <= parties; j++ {
		if nodes[j-1], err = NewNode(Config{
			PK: pk, Parties: parties, Threshold: threshold,
			Index: j, Dealers: []int{1, 2, 3, 4}, DealerIndex: j, Secret: pieces[j-1],
			Rand: NewDeterministicRand(fmt.Sprintf("hand-%d", j), seed),
		}); err != nil {
			t.Fatalf("node %d: %v", j, err)
		}
	}
	for _, nd := range nodes {
		for _, d := range nd.Deals() {
			if tamper != nil {
				tamper(d)
			}
			if err := nodes[d.Receiver-1].HandleDeal(d); err != nil {
				t.Fatalf("deal: %v", err)
			}
			if after != nil {
				after(d)
			}
		}
	}
	responses := make([]*Response, parties)
	for i, nd := range nodes {
		responses[i] = nd.Response()
		for _, peer := range nodes {
			if peer != nd {
				if err := peer.HandleResponse(responses[i]); err != nil {
					t.Fatalf("response: %v", err)
				}
			}
		}
	}
	for _, nd := range nodes {
		if mute[nd.cfg.DealerIndex] {
			continue
		}
		j, err := nd.Justification()
		if err != nil {
			t.Fatalf("justification: %v", err)
		}
		for _, peer := range nodes {
			if err := peer.HandleJustification(j); err != nil {
				t.Fatalf("handle justification: %v", err)
			}
		}
	}
	results := make([]*Result, parties)
	errs := make([]error, parties)
	for i, nd := range nodes {
		results[i], errs[i] = nd.Finish()
	}
	return responses, results, errs
}

// TestBadDealComplainedAndDisqualified: a share that fails verification
// draws its receiver's complaint in Response, and — its dealer not
// justifying — every node's Finish disqualifies that dealer, with the
// verdict Response recorded.
func TestBadDealComplainedAndDisqualified(t *testing.T) {
	misdeal := func(d *Deal) {
		if d.Dealer == 2 && d.Receiver == 3 {
			d.Share.Add(d.Share, big.NewInt(5))
		}
	}
	responses, results, errs := handDrive(t, misdeal, nil, map[int]bool{2: true})
	for i, r := range responses {
		for _, v := range r.Verdicts {
			if want := i+1 == 3 && v.Dealer == 2; v.Complaint != want {
				t.Fatalf("receiver %d on dealer %d: complaint %v, want %v", i+1, v.Dealer, v.Complaint, want)
			}
		}
	}
	for i, res := range results {
		if !errors.Is(errs[i], ErrDisqualified) || len(res.Disqualified) != 1 || res.Disqualified[0] != 2 {
			t.Fatalf("node %d: disqualified %v (%v), want [2] and ErrDisqualified", i+1, res.Disqualified, errs[i])
		}
	}
}

// TestHandleDealKeepsItsOwnCopy: mutating the caller's Deal after
// HandleDeal changes neither the Response verdicts nor Finish's
// result — the node verifies and keeps what it was handed.
func TestHandleDealKeepsItsOwnCopy(t *testing.T) {
	_, want, errs := handDrive(t, nil, nil, nil)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("control node %d: %v", i+1, err)
		}
	}
	scribble := func(d *Deal) {
		d.Share.Add(d.Share, big.NewInt(1))
		for _, c := range d.Commits {
			c.SetInt64(2)
		}
	}
	responses, got, errs := handDrive(t, nil, scribble, nil)
	for i, r := range responses {
		for _, v := range r.Verdicts {
			if v.Complaint {
				t.Fatalf("receiver %d complained about dealer %d after the caller scribbled on a handled deal", i+1, v.Dealer)
			}
		}
	}
	for i := range want {
		if errs[i] != nil {
			t.Fatalf("node %d: %v", i+1, errs[i])
		}
		if got[i].Share.Value.Cmp(want[i].Share.Value) != 0 || !equalInts(got[i].Qualified, want[i].Qualified) {
			t.Fatalf("node %d: share or qualified set differs from the untouched ceremony's", i+1)
		}
	}
}
