// Package dkg implements Pedersen-style distributed key generation and
// resharing for the threshold Damgård–Jurik deployment, following the
// three-phase structure production DKGs (drand's pedersen/dkg) use:
//
//  1. Deal — every dealer Shamir-shares its contribution as unreduced
//     integers and broadcasts Feldman-style coefficient commitments
//     (commit.go); shares travel privately, commitments publicly.
//  2. Response — every receiver broadcasts a verdict per dealer:
//     complaint (bad or missing share) plus the digest of the
//     commitment vector it saw, which is what catches equivocation.
//  3. Justification — accused dealers broadcast their commitment
//     vector and the revealed shares of their complainers; a valid
//     justification rehabilitates the dealer (and hands the complainer
//     its correct share), an absent or invalid one disqualifies it.
//
// Finish evaluates the verdict from broadcast information only, so
// every honest node reaches the same qualified set deterministically.
//
// Two ceremonies share the machinery:
//
//   - Fresh generation: the founders hold additive pieces of the
//     decryption exponent d (Σ d_i = d, see GenesisPieces) and each
//     deals its piece; final shares are sums of received shares and
//     the resulting key has scale 1. Any disqualification aborts the
//     ceremony (the pieces of a disqualified founder cannot be
//     dropped without changing the secret) — the caller re-splits d
//     among the qualified founders and re-runs, which is the
//     liveness path internal/core drives.
//   - Resharing: each surviving shareholder deals its OLD share as the
//     constant term; new shares are Lagrange-weighted sums over the
//     lowest old-threshold qualified dealers, which multiplies the
//     effective secret by Δ_old — tracked publicly as the key's Scale
//     and cancelled at Combine time. A population that lost up to
//     n−threshold−1 members re-keys onto a fresh deployment shape and
//     keeps decrypting bit-identically.
//
// What this deliberately does not do: generate the modulus itself.
// Distributed safe-prime RSA generation (Boneh–Franklin and
// descendants) is out of scope; the genesis pieces are derived from
// the fixture primes (GenesisPieces), standing in for the output of a
// modulus ceremony. Everything downstream of genesis — dealing,
// verification, disqualification, resharing — is dealer-free.
package dkg

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sort"

	"chiaroscuro/internal/crypto/damgardjurik"
)

// Protocol errors.
var (
	ErrConfig        = errors.New("dkg: invalid configuration")
	ErrPhase         = errors.New("dkg: phase violation")
	ErrDisqualified  = errors.New("dkg: ceremony aborted, dealers disqualified")
	ErrTooFewDealers = errors.New("dkg: fewer qualified dealers than the old threshold")
)

// coeffSlackBits pads the random-coefficient range past the magnitude
// of any dealt secret (genesis pieces are < parties·2^64·n^s·m', old
// shares are comparable), so shares statistically hide the constant
// term from honest-but-curious receivers.
const coeffSlackBits = 128

// Config describes one participant of one ceremony.
//
// Receivers are indexed 1..Parties in the NEW deployment. Dealer ids
// live in their own space: for a fresh ceremony they are founder
// receiver indices; for a reshare they are OLD deployment share
// indices. A node that only receives (a newcomer in a reshare) sets
// DealerIndex 0 and no Secret.
type Config struct {
	PK        *damgardjurik.PublicKey
	Parties   int // new deployment size (number of receivers)
	Threshold int // new decryption threshold
	Index     int // this node's receiver index, 1-based

	Dealers     []int    // ascending distinct dealer ids every node expects
	DealerIndex int      // this node's dealer id, 0 if receive-only
	Secret      *big.Int // constant term this node deals (required iff dealing)

	// Reshare parameters; all zero/nil for a fresh ceremony.
	OldThreshold int
	OldDelta     *big.Int // Δ of the deployment being reshared
	OldScale     *big.Int // Scale of the key being reshared

	Rand io.Reader // polynomial coefficients; crypto/rand.Reader if nil
}

// Result is what a node walks away with.
type Result struct {
	Key          *damgardjurik.ThresholdKey // nil when the ceremony aborted
	Share        damgardjurik.KeyShare      // this node's share (Value nil on abort)
	Qualified    []int                      // dealer ids, ascending
	Disqualified []int                      // dealer ids, ascending
}

// Node is one participant's ceremony state machine. Not safe for
// concurrent use; drive it from a single goroutine.
type Node struct {
	cfg     Config
	reshare bool
	g       *big.Int
	mod     *big.Int // n^{s+1}, the commitment group modulus

	poly      []*big.Int // dealing polynomial, constant term first; nil if receive-only
	myCommits []*big.Int

	deals     map[int]*Deal          // dealer id -> own copy of the deal addressed to this node
	valid     map[int]bool           // dealer id -> verdict on its deal's share, once verified
	responses map[int]*Response      // receiver index -> response
	justs     map[int]*Justification // dealer id -> justification
}

// NewNode validates the configuration and, for dealers, samples the
// dealing polynomial and its commitments.
func NewNode(cfg Config) (*Node, error) {
	if cfg.PK == nil {
		return nil, fmt.Errorf("%w: nil public key", ErrConfig)
	}
	if cfg.Parties < 1 || cfg.Threshold < 1 || cfg.Threshold > cfg.Parties {
		return nil, fmt.Errorf("%w: parties=%d threshold=%d", ErrConfig, cfg.Parties, cfg.Threshold)
	}
	if cfg.Index < 1 || cfg.Index > cfg.Parties {
		return nil, fmt.Errorf("%w: receiver index %d", ErrConfig, cfg.Index)
	}
	if len(cfg.Dealers) == 0 {
		return nil, fmt.Errorf("%w: no dealers", ErrConfig)
	}
	for i, d := range cfg.Dealers {
		if d < 1 || (i > 0 && d <= cfg.Dealers[i-1]) {
			return nil, fmt.Errorf("%w: dealer ids must be ascending and positive", ErrConfig)
		}
	}
	reshare := cfg.OldDelta != nil
	if reshare {
		if cfg.OldThreshold < 1 || cfg.OldScale == nil || cfg.OldScale.Sign() <= 0 || cfg.OldDelta.Sign() <= 0 {
			return nil, fmt.Errorf("%w: incomplete reshare parameters", ErrConfig)
		}
		if len(cfg.Dealers) < cfg.OldThreshold {
			return nil, fmt.Errorf("%w: %d dealers cannot meet old threshold %d", ErrConfig, len(cfg.Dealers), cfg.OldThreshold)
		}
	}
	dealing := cfg.DealerIndex != 0
	if dealing {
		found := false
		for _, d := range cfg.Dealers {
			found = found || d == cfg.DealerIndex
		}
		if !found {
			return nil, fmt.Errorf("%w: own dealer id %d not in dealer set", ErrConfig, cfg.DealerIndex)
		}
		if cfg.Secret == nil {
			return nil, fmt.Errorf("%w: dealer without a secret", ErrConfig)
		}
	}
	nd := &Node{
		cfg:       cfg,
		reshare:   reshare,
		g:         generator(cfg.PK),
		mod:       cfg.PK.CiphertextModulus(),
		deals:     make(map[int]*Deal, len(cfg.Dealers)),
		valid:     make(map[int]bool, len(cfg.Dealers)),
		responses: make(map[int]*Response, cfg.Parties),
		justs:     make(map[int]*Justification, len(cfg.Dealers)),
	}
	if dealing {
		rnd := cfg.Rand
		if rnd == nil {
			rnd = rand.Reader
		}
		bound := new(big.Int).Lsh(nd.mod, coeffSlackBits)
		nd.poly = make([]*big.Int, cfg.Threshold)
		nd.poly[0] = new(big.Int).Set(cfg.Secret)
		for k := 1; k < cfg.Threshold; k++ {
			c, err := rand.Int(rnd, bound)
			if err != nil {
				return nil, fmt.Errorf("dkg: sampling coefficients: %w", err)
			}
			nd.poly[k] = c
		}
		commits, err := commitPoly(nd.g, nd.mod, nd.poly)
		if err != nil {
			return nil, err
		}
		nd.myCommits = commits
	}
	return nd, nil
}

// evalAt evaluates this node's dealing polynomial at x over ℤ —
// unreduced on purpose (see KeyShare in damgardjurik).
func (nd *Node) evalAt(x int) *big.Int {
	out := new(big.Int)
	bx := big.NewInt(int64(x))
	for k := len(nd.poly) - 1; k >= 0; k-- {
		out.Mul(out, bx)
		out.Add(out, nd.poly[k])
	}
	return out
}

// Deals returns this dealer's private deal for every receiver
// (including itself; drivers route it back through HandleDeal so the
// self-deal takes the same validation path). Receive-only nodes get an
// empty slice.
func (nd *Node) Deals() []*Deal {
	if nd.poly == nil {
		return nil
	}
	out := make([]*Deal, nd.cfg.Parties)
	for j := 1; j <= nd.cfg.Parties; j++ {
		commits := make([]*big.Int, len(nd.myCommits))
		for k, c := range nd.myCommits {
			commits[k] = new(big.Int).Set(c)
		}
		out[j-1] = &Deal{
			Dealer:   nd.cfg.DealerIndex,
			Receiver: j,
			Share:    nd.evalAt(j),
			Commits:  commits,
		}
	}
	return out
}

// HandleDeal ingests a deal addressed to this node. Structurally
// foreign deals (wrong receiver, unknown dealer, duplicate, wrong
// commitment count) are rejected with an error; a deal whose share
// fails verification is STORED — the complaint surfaces in Response,
// which is the protocol path, not an ingestion failure. The node keeps
// its own copy of the share and commitments, so the caller may reuse d
// and the verdict always describes what is stored.
func (nd *Node) HandleDeal(d *Deal) error {
	if d == nil || d.Receiver != nd.cfg.Index {
		return fmt.Errorf("%w: deal not addressed to receiver %d", ErrPhase, nd.cfg.Index)
	}
	if !nd.isDealer(d.Dealer) {
		return fmt.Errorf("%w: unknown dealer %d", ErrPhase, d.Dealer)
	}
	if _, dup := nd.deals[d.Dealer]; dup {
		return fmt.Errorf("%w: duplicate deal from dealer %d", ErrPhase, d.Dealer)
	}
	if len(d.Commits) != nd.cfg.Threshold {
		return fmt.Errorf("%w: deal carries %d commitments, want %d", ErrPhase, len(d.Commits), nd.cfg.Threshold)
	}
	for _, c := range d.Commits {
		if c == nil || c.Sign() <= 0 || c.Cmp(nd.mod) >= 0 {
			return fmt.Errorf("%w: commitment out of group range", ErrPhase)
		}
	}
	if d.Share == nil {
		return fmt.Errorf("%w: deal without share", ErrPhase)
	}
	own := &Deal{Dealer: d.Dealer, Receiver: d.Receiver, Share: new(big.Int).Set(d.Share), Commits: make([]*big.Int, len(d.Commits))}
	for k, c := range d.Commits {
		own.Commits[k] = new(big.Int).Set(c)
	}
	nd.deals[d.Dealer] = own
	return nil
}

// shareValid reports whether the stored deal from dealer verifies
// against its commitments. Response and Finish both ask, and verifying
// costs one exponentiation per commitment, so it is done once.
func (nd *Node) shareValid(dealer int, d *Deal) bool {
	ok, done := nd.valid[dealer]
	if !done {
		ok = verifyShare(nd.g, nd.mod, d.Commits, nd.cfg.Index, d.Share)
		nd.valid[dealer] = ok
	}
	return ok
}

// Response produces this node's broadcast verdict list: one entry per
// expected dealer, ascending. Missing deals carry the zero digest and
// a complaint; present deals carry the commitment digest and a
// complaint iff the share fails verification. The own response is
// recorded so Finish sees the same broadcast set as every peer, and
// each verdict is kept so Finish does not verify the share again.
func (nd *Node) Response() *Response {
	r := &Response{From: nd.cfg.Index, Verdicts: make([]DealerVerdict, len(nd.cfg.Dealers))}
	for i, dealer := range nd.cfg.Dealers {
		v := DealerVerdict{Dealer: dealer}
		d, ok := nd.deals[dealer]
		if !ok {
			v.Complaint = true
		} else {
			v.Digest = commitDigest(d.Commits)
			v.Complaint = !nd.shareValid(dealer, d)
		}
		r.Verdicts[i] = v
	}
	nd.responses[nd.cfg.Index] = r
	return r
}

// HandleResponse ingests a peer's broadcast verdict list.
func (nd *Node) HandleResponse(r *Response) error {
	if r == nil || r.From < 1 || r.From > nd.cfg.Parties {
		return fmt.Errorf("%w: response from unknown receiver", ErrPhase)
	}
	if _, dup := nd.responses[r.From]; dup {
		return fmt.Errorf("%w: duplicate response from receiver %d", ErrPhase, r.From)
	}
	if len(r.Verdicts) != len(nd.cfg.Dealers) {
		return fmt.Errorf("%w: response covers %d dealers, want %d", ErrPhase, len(r.Verdicts), len(nd.cfg.Dealers))
	}
	for i, v := range r.Verdicts {
		if v.Dealer != nd.cfg.Dealers[i] {
			return fmt.Errorf("%w: verdict order mismatch at %d", ErrPhase, i)
		}
	}
	nd.responses[r.From] = r
	return nil
}

// complainers returns, from the full response set, the receiver
// indices complaining about the given dealer, ascending.
func (nd *Node) complainers(dealer int) []int {
	var out []int
	for j := 1; j <= nd.cfg.Parties; j++ {
		r := nd.responses[j]
		if r == nil {
			continue
		}
		for _, v := range r.Verdicts {
			if v.Dealer == dealer && v.Complaint {
				out = append(out, j)
			}
		}
	}
	return out
}

// Justification produces this node's round-3 broadcast. Dealers answer
// every complaint against them by revealing the complainer's correct
// share together with the commitment vector; everyone else (and
// unaccused dealers) broadcasts the empty justification, keeping the
// wire phase one-message-per-node. Requires all responses.
func (nd *Node) Justification() (*Justification, error) {
	if len(nd.responses) != nd.cfg.Parties {
		return nil, fmt.Errorf("%w: justification before all responses (%d/%d)", ErrPhase, len(nd.responses), nd.cfg.Parties)
	}
	if nd.poly == nil {
		return &Justification{}, nil
	}
	accusers := nd.complainers(nd.cfg.DealerIndex)
	if len(accusers) == 0 {
		return &Justification{}, nil
	}
	j := &Justification{
		Dealer:  nd.cfg.DealerIndex,
		Commits: make([]*big.Int, len(nd.myCommits)),
		Shares:  make([]JustShare, len(accusers)),
	}
	for k, c := range nd.myCommits {
		j.Commits[k] = new(big.Int).Set(c)
	}
	for i, a := range accusers {
		j.Shares[i] = JustShare{Receiver: a, Share: nd.evalAt(a)}
	}
	return j, nil
}

// HandleJustification ingests a dealer's broadcast justification.
// Empty justifications (Dealer 0) are the wire filler and are dropped.
func (nd *Node) HandleJustification(j *Justification) error {
	if j == nil {
		return fmt.Errorf("%w: nil justification", ErrPhase)
	}
	if j.Dealer == 0 {
		return nil
	}
	if !nd.isDealer(j.Dealer) {
		return fmt.Errorf("%w: justification from unknown dealer %d", ErrPhase, j.Dealer)
	}
	if _, dup := nd.justs[j.Dealer]; dup {
		return fmt.Errorf("%w: duplicate justification from dealer %d", ErrPhase, j.Dealer)
	}
	nd.justs[j.Dealer] = j
	return nil
}

func (nd *Node) isDealer(id int) bool {
	for _, d := range nd.cfg.Dealers {
		if d == id {
			return true
		}
	}
	return false
}

// Finish evaluates the verdict and assembles this node's share.
//
// The disqualification rule per dealer, computed from broadcast data
// only (responses + justifications), so all honest nodes agree:
//
//   - the non-zero commitment digests across all responses must be a
//     single value — zero of them means the dealer dealt to nobody
//     (silent), two or more mean it equivocated; either disqualifies;
//   - every complaint must be answered by a justification whose
//     commitment vector matches the agreed digest and whose revealed
//     share verifies; any unanswered or invalid one disqualifies.
//
// A node whose own deal was bad or missing adopts the justified share.
// Fresh ceremonies abort with ErrDisqualified if any dealer fails
// (additive pieces cannot be dropped); reshares proceed as long as the
// old threshold survives, combining over the lowest qualified dealers.
func (nd *Node) Finish() (*Result, error) {
	if len(nd.responses) != nd.cfg.Parties {
		return nil, fmt.Errorf("%w: finish before all responses (%d/%d)", ErrPhase, len(nd.responses), nd.cfg.Parties)
	}
	var zero [32]byte
	res := &Result{}
	shares := make(map[int]*big.Int, len(nd.cfg.Dealers)) // qualified dealer -> my share from it
	for _, dealer := range nd.cfg.Dealers {
		agreed, equivocated := nd.agreedDigest(dealer, zero)
		if equivocated || agreed == zero {
			res.Disqualified = append(res.Disqualified, dealer)
			continue
		}
		myShare, ok := nd.dealerShare(dealer, agreed)
		if !ok {
			res.Disqualified = append(res.Disqualified, dealer)
			continue
		}
		res.Qualified = append(res.Qualified, dealer)
		shares[dealer] = myShare
	}
	sort.Ints(res.Qualified)
	sort.Ints(res.Disqualified)

	if !nd.reshare {
		if len(res.Disqualified) > 0 {
			return res, ErrDisqualified
		}
		sum := new(big.Int)
		for _, dealer := range res.Qualified {
			sum.Add(sum, shares[dealer])
		}
		key, err := damgardjurik.NewThresholdKeyPublic(nd.cfg.PK.N, nd.cfg.PK.S, nd.cfg.Parties, nd.cfg.Threshold, one)
		if err != nil {
			return nil, err
		}
		res.Key = key
		res.Share = damgardjurik.KeyShare{Index: nd.cfg.Index, Value: sum}
		return res, nil
	}

	if len(res.Qualified) < nd.cfg.OldThreshold {
		return res, fmt.Errorf("%w: %d of %d", ErrTooFewDealers, len(res.Qualified), nd.cfg.OldThreshold)
	}
	use := res.Qualified[:nd.cfg.OldThreshold]
	sum := new(big.Int)
	for i, dealer := range use {
		lam, err := lagrangeAtZero(nd.cfg.OldDelta, use, i)
		if err != nil {
			return nil, err
		}
		sum.Add(sum, lam.Mul(lam, shares[dealer]))
	}
	scale := new(big.Int).Mul(nd.cfg.OldScale, nd.cfg.OldDelta)
	key, err := damgardjurik.NewThresholdKeyPublic(nd.cfg.PK.N, nd.cfg.PK.S, nd.cfg.Parties, nd.cfg.Threshold, scale)
	if err != nil {
		return nil, err
	}
	res.Key = key
	res.Share = damgardjurik.KeyShare{Index: nd.cfg.Index, Value: sum}
	return res, nil
}

// agreedDigest scans all responses for the dealer's commitment digest.
func (nd *Node) agreedDigest(dealer int, zero [32]byte) (agreed [32]byte, equivocated bool) {
	for j := 1; j <= nd.cfg.Parties; j++ {
		for _, v := range nd.responses[j].Verdicts {
			if v.Dealer != dealer || v.Digest == zero {
				continue
			}
			if agreed == zero {
				agreed = v.Digest
			} else if agreed != v.Digest {
				return agreed, true
			}
		}
	}
	return agreed, false
}

// dealerShare resolves this node's verified share from the given
// dealer: the dealt share when it verified, otherwise the justified
// share. It also enforces that every OTHER complaint against the
// dealer was validly answered. Returns ok=false to disqualify.
func (nd *Node) dealerShare(dealer int, agreed [32]byte) (*big.Int, bool) {
	complainers := nd.complainers(dealer)
	j := nd.justs[dealer]
	var jCommits []*big.Int
	if j != nil && len(j.Commits) == nd.cfg.Threshold && commitDigest(j.Commits) == agreed {
		ok := true
		for _, c := range j.Commits {
			ok = ok && c != nil && c.Sign() > 0 && c.Cmp(nd.mod) < 0
		}
		if ok {
			jCommits = j.Commits
		}
	}
	for _, a := range complainers {
		if jCommits == nil {
			return nil, false // complaint with no usable justification
		}
		var revealed *big.Int
		for _, s := range j.Shares {
			if s.Receiver == a {
				revealed = s.Share
				break
			}
		}
		if revealed == nil || !verifyShare(nd.g, nd.mod, jCommits, a, revealed) {
			return nil, false
		}
	}

	if d, ok := nd.deals[dealer]; ok && commitDigest(d.Commits) == agreed && nd.shareValid(dealer, d) {
		return d.Share, true
	}
	// Own deal was bad, missing, or equivocated-away: adopt the
	// justified share (verified above, since we complained).
	if jCommits != nil {
		for _, s := range j.Shares {
			if s.Receiver == nd.cfg.Index {
				return s.Share, true
			}
		}
	}
	return nil, false
}

// lagrangeAtZero mirrors the integer Lagrange coefficient the
// damgardjurik package uses for combining: λ_{0,ids[i]} =
// Δ·Π_{j≠i} x_j/(x_j−x_i), integral because Δ absorbs denominators.
func lagrangeAtZero(delta *big.Int, ids []int, i int) (*big.Int, error) {
	num := new(big.Int).Set(delta)
	den := big.NewInt(1)
	xi := int64(ids[i])
	for j, xj := range ids {
		if j == i {
			continue
		}
		num.Mul(num, big.NewInt(int64(xj)))
		den.Mul(den, big.NewInt(int64(xj)-xi))
	}
	q, r := new(big.Int).QuoRem(num, den, new(big.Int))
	if r.Sign() != 0 {
		return nil, fmt.Errorf("dkg: non-integral Lagrange coefficient for ids %v", ids)
	}
	return q, nil
}
