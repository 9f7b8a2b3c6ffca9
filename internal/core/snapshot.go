package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"slices"

	"chiaroscuro/internal/gossip"
	"chiaroscuro/internal/p2p"
	"chiaroscuro/internal/wire"
)

// snapshot.go makes a networked participant's complete mutable state
// explicitly serializable, so a crashed daemon can restart from an
// epoch checkpoint and replay its run bit-identically. A snapshot
// captures everything a Node mutates while stepping: the protocol
// phase machine, the diptych (public centroids and, mid-gossip, the
// encrypted push-sum state), the decryption collection buffers, the
// disclosed history, and the one-word splitmix64 state of the noise
// RNG. The run-wide immutable configuration (params, data, suite) is
// NOT in the snapshot — the restarting daemon reconstructs it from the
// same (data, params) every process derives — with one exception: the
// Damgård–Jurik ceremony key material (this process's own share only),
// which cannot be re-derived because the ceremony entropy came from
// crypto/rand and the mesh has moved past the ceremony.
//
// The hot-path scratch buffers (emit double-buffers, arena vectors,
// inbox classification slices) are deliberately absent: they are
// rebuilt lazily on the next activation and hold no trajectory state.

const (
	snapMagic uint32 = 0xC1A85A9B
	// snapVersion 2 added the decrypt-phase outstanding-request window
	// (sorted (peer, ttl) pairs after the asked block). v1 snapshots are
	// rejected — a pre-window checkpoint cannot resume the windowed
	// trajectory bit-identically anyway. snapVersion 3 added the push-sum
	// state's halving exponent beside its weight; a v2 state's values
	// were halved in place and mean something else. snapVersion 4 packed
	// an unpacked run's opening. snapVersion 5 packs at encryption: every
	// run's push-sum vector, pending ciphertexts and partial sets hold
	// ⌈sideLen/slots⌉ balanced-digit groups per side, where a v4 one held
	// sideLen ciphertexts per side or biased slot groups.
	// snapVersion 6 adds the noise before encryption: the push-sum vector
	// is one side of ⌈sideLen/slots⌉ groups, where a v5 one held two.
	snapVersion uint32 = 6
)

// errSnapshot wraps every malformed-snapshot condition so callers can
// distinguish corruption from config mismatch if they care to.
var errSnapshot = errors.New("core: malformed snapshot")

func snapErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errSnapshot, fmt.Sprintf(format, args...))
}

// AppendSnapshot appends the node's complete mutable state to buf. The
// intended call point is an epoch boundary (the transport checkpoints
// after a barrier completes), but any quiescent moment between Step
// calls is valid. The encoding is the wire package's length-prefixed
// field format; floats travel as IEEE-754 bit patterns so a restore is
// bit-exact, NaNs included. The two nested blobs are written in place
// (wire.BeginField), and so are the cipher vectors inside them, so a
// caller that brings a buffer big enough allocates nothing.
func (nd *Node) AppendSnapshot(buf []byte) ([]byte, error) {
	p := nd.pt

	buf = wire.AppendUint32(buf, snapMagic)
	buf = wire.AppendUint32(buf, snapVersion)

	// Header blob: everything RestoreNode needs BEFORE it can build the
	// run — identity, RNG state, and the ceremony key material.
	buf, hdr := wire.BeginField(buf)
	buf = wire.AppendUint64(buf, nd.Fingerprint())
	buf = wire.AppendUint32(buf, uint32(p.id))
	buf = wire.AppendUint64(buf, p.rngSrc.State())
	if m := nd.pop.p.DJMaterial; m != nil {
		var gb bytes.Buffer
		if err := gob.NewEncoder(&gb).Encode(m); err != nil {
			return nil, fmt.Errorf("core: snapshot key material: %w", err)
		}
		buf = wire.AppendUint32(buf, 1)
		buf = wire.AppendBytes(buf, gb.Bytes())
	} else {
		buf = wire.AppendUint32(buf, 0)
	}
	buf = wire.EndField(buf, hdr)

	// State blob: the participant's mutable protocol state.
	buf, st := wire.BeginField(buf)
	buf = wire.AppendUint32(buf, uint32(p.phase))
	buf = wire.AppendUint32(buf, uint32(p.iter))
	buf = wire.AppendUint32(buf, uint32(p.roundsDone))
	buf = wire.AppendUint32(buf, uint32(p.assignment))
	buf = wire.AppendUint32(buf, uint32(p.waitCycles))
	buf = wire.AppendUint32(buf, uint32(p.staleDrops))
	buf = wire.AppendUint32(buf, uint32(p.decryptFail))
	buf = wire.AppendUint32(buf, uint32(p.diptych.Iteration))
	buf = appendFloats(buf, p.diptych.Centroids)

	// The encrypted push-sum state only matters in the phases that read
	// it before stepAssign rebuilds it (gossip and decrypt); elsewhere a
	// stale Means is dead weight, so it is dropped.
	if p.diptych.Means != nil && (p.phase == phaseGossip || p.phase == phaseDecrypt) {
		buf = wire.AppendUint32(buf, 1)
		buf = wire.AppendUint64(buf, math.Float64bits(p.diptych.Means.Weight()))
		buf = wire.AppendUint32(buf, uint32(p.diptych.Means.H))
		var err error
		if buf, err = appendVectorField(buf, p.diptych.Means.V, nd.pop.suite.AppendCipherVector); err != nil {
			return nil, fmt.Errorf("core: snapshot push-sum state: %w", err)
		}
	} else {
		buf = wire.AppendUint32(buf, 0)
	}

	// pendingCT's nil-ness is protocol state: stepDecrypt runs step 2c
	// exactly when it is nil, so the flag must round-trip even though an
	// empty vector never occurs.
	if p.pendingCT != nil {
		buf = wire.AppendUint32(buf, 1)
		var err error
		if buf, err = appendVectorField(buf, p.pendingCT, nd.pop.suite.AppendCipherVector); err != nil {
			return nil, fmt.Errorf("core: snapshot pending ciphertexts: %w", err)
		}
	} else {
		buf = wire.AppendUint32(buf, 0)
	}

	// The partial sets by share index, the asked peers by id, then the
	// in-flight asks (peer, ttl) by id: the window keeps all three in
	// ascending order, so the bytes are deterministic.
	buf = wire.AppendUint32(buf, uint32(len(p.partials)))
	for _, set := range p.partials {
		buf = wire.AppendUint32(buf, uint32(set[0].Index))
		var err error
		if buf, err = appendVectorField(buf, set, nd.pop.suite.AppendPartialValues); err != nil {
			return nil, fmt.Errorf("core: snapshot partials: %w", err)
		}
	}
	buf = wire.AppendUint32(buf, uint32(len(p.asks)))
	for _, a := range p.asks {
		buf = wire.AppendUint32(buf, uint32(a.peer))
	}
	inFlight := 0
	for _, a := range p.asks {
		if a.ttl > 0 {
			inFlight++
		}
	}
	buf = wire.AppendUint32(buf, uint32(inFlight))
	for _, a := range p.asks {
		if a.ttl > 0 {
			buf = wire.AppendUint32(buf, uint32(a.peer))
			buf = wire.AppendUint32(buf, uint32(a.ttl))
		}
	}

	buf = wire.AppendUint32(buf, uint32(len(p.history)))
	for _, h := range p.history {
		buf = wire.AppendUint32(buf, uint32(h.Iteration))
		buf = wire.AppendUint64(buf, math.Float64bits(h.Epsilon))
		buf = appendFloats(buf, h.PerturbedCentroids)
		buf = appendFloats(buf, [][]float64{h.PerturbedCounts})
		buf = wire.AppendUint64(buf, math.Float64bits(h.PerturbedInertia))
		buf = wire.AppendUint32(buf, uint32(h.Assignment))
		buf = wire.AppendUint64(buf, math.Float64bits(h.Displacement))
		failed := uint32(0)
		if h.DecryptFailed {
			failed = 1
		}
		buf = wire.AppendUint32(buf, failed)
		buf = wire.AppendUint32(buf, uint32(h.CompletedAtCycle))
	}
	return wire.EndField(buf, st), nil
}

// snapshotHeader is the pre-construction part of a snapshot.
type snapshotHeader struct {
	fingerprint uint64
	id          int
	rngState    uint64
	material    *DJKeyMaterial
}

// parseSnapshotHeader splits a snapshot into its header (decoded) and
// its still-encoded state blob.
func parseSnapshotHeader(snap []byte) (*snapshotHeader, []byte, error) {
	fr := wire.NewFieldReader(snap)
	magic, err := fr.Uint32()
	if err != nil {
		return nil, nil, snapErr("truncated: %v", err)
	}
	if magic != snapMagic {
		return nil, nil, snapErr("bad magic 0x%08x", magic)
	}
	version, err := fr.Uint32()
	if err != nil {
		return nil, nil, snapErr("truncated: %v", err)
	}
	if version != snapVersion {
		return nil, nil, snapErr("version %d, want %d", version, snapVersion)
	}
	hdrBytes, err := fr.Bytes()
	if err != nil {
		return nil, nil, snapErr("header: %v", err)
	}
	stBytes, err := fr.Bytes()
	if err != nil {
		return nil, nil, snapErr("state: %v", err)
	}
	if err := fr.Done(); err != nil {
		return nil, nil, snapErr("trailing bytes: %v", err)
	}

	h := &snapshotHeader{}
	hr := wire.NewFieldReader(hdrBytes)
	if h.fingerprint, err = hr.Uint64(); err != nil {
		return nil, nil, snapErr("fingerprint: %v", err)
	}
	idU, err := hr.Uint32()
	if err != nil {
		return nil, nil, snapErr("id: %v", err)
	}
	h.id = int(idU)
	if h.rngState, err = hr.Uint64(); err != nil {
		return nil, nil, snapErr("rng state: %v", err)
	}
	hasMat, err := hr.Uint32()
	if err != nil {
		return nil, nil, snapErr("material flag: %v", err)
	}
	switch hasMat {
	case 0:
	case 1:
		mb, err := hr.Bytes()
		if err != nil {
			return nil, nil, snapErr("material: %v", err)
		}
		var m DJKeyMaterial
		if err := gob.NewDecoder(bytes.NewReader(mb)).Decode(&m); err != nil {
			return nil, nil, snapErr("material: %v", err)
		}
		h.material = &m
	default:
		return nil, nil, snapErr("material flag %d", hasMat)
	}
	if err := hr.Done(); err != nil {
		return nil, nil, snapErr("header trailing bytes: %v", err)
	}
	return h, stBytes, nil
}

// RestoreNode rebuilds a Node from the shared run configuration and a
// snapshot taken by Node.AppendSnapshot. The (data, params) must be the same
// configuration the snapshotted node was built from — the snapshot's
// fingerprint is checked against it, so a restart launched with
// different flags fails loudly instead of diverging. Ceremony key
// material embedded in the snapshot takes the place of re-running the
// key ceremony.
func RestoreNode(data [][]float64, params Params, id int, snap []byte) (*Node, error) {
	h, stBytes, err := parseSnapshotHeader(snap)
	if err != nil {
		return nil, err
	}
	if h.id != id {
		return nil, snapErr("snapshot is node %d's, not node %d's", h.id, id)
	}
	if h.material != nil {
		params.DJMaterial = h.material
	}
	fp, err := ConfigFingerprint(data, params)
	if err != nil {
		return nil, err
	}
	if h.fingerprint != fp {
		return nil, fmt.Errorf("core: snapshot fingerprint %016x does not match run configuration %016x", h.fingerprint, fp)
	}
	nd, err := NewNode(data, params, id)
	if err != nil {
		return nil, err
	}
	if err := nd.restoreState(h, stBytes); err != nil {
		nd.Close()
		return nil, err
	}
	return nd, nil
}

// restoreState decodes the participant state blob into the freshly
// constructed node, validating every field against the run
// configuration so a corrupted checkpoint is rejected instead of
// desynchronizing (or crashing) the participant.
func (nd *Node) restoreState(h *snapshotHeader, st []byte) error {
	p := nd.pt
	r := p.run
	fr := wire.NewFieldReader(st)

	u32 := func(name string) (int, error) {
		v, err := fr.Uint32()
		if err != nil {
			return 0, snapErr("%s: %v", name, err)
		}
		return int(v), nil
	}
	f64 := func(name string) (float64, error) {
		v, err := fr.Uint64()
		if err != nil {
			return 0, snapErr("%s: %v", name, err)
		}
		return math.Float64frombits(v), nil
	}
	phaseV, err := u32("phase")
	if err != nil {
		return err
	}
	if phaseV > int(phaseDone) {
		return snapErr("phase %d out of range", phaseV)
	}
	iter, err := u32("iter")
	if err != nil {
		return err
	}
	if iter >= len(r.epsSched) {
		return snapErr("iteration %d outside schedule of %d", iter, len(r.epsSched))
	}
	roundsDone, err := u32("roundsDone")
	if err != nil {
		return err
	}
	assignment, err := u32("assignment")
	if err != nil {
		return err
	}
	if assignment >= r.params.K {
		return snapErr("assignment %d outside K=%d", assignment, r.params.K)
	}
	waitCycles, err := u32("waitCycles")
	if err != nil {
		return err
	}
	staleDrops, err := u32("staleDrops")
	if err != nil {
		return err
	}
	decryptFail, err := u32("decryptFail")
	if err != nil {
		return err
	}
	dipIter, err := u32("diptych iteration")
	if err != nil {
		return err
	}
	centroids, err := readFloats(fr, r.params.K, r.dim)
	if err != nil {
		return snapErr("centroids: %v", err)
	}

	hasMeans, err := u32("means flag")
	if err != nil {
		return err
	}
	var means *gossip.State[Cipher]
	switch hasMeans {
	case 0:
	case 1:
		w, err := f64("push-sum weight")
		if err != nil {
			return err
		}
		if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 || w > float64(r.population) {
			return snapErr("implausible push-sum weight %g", w)
		}
		h, err := u32("push-sum exponent")
		if err != nil {
			return err
		}
		// DecodePayload's limit: a state adopts at most the budget from
		// a message and stops emitting once it has reached it.
		if h > int(r.preScale) {
			return snapErr("push-sum exponent %d beyond the pre-scale budget %d", h, r.preScale)
		}
		cv, err := fr.Bytes()
		if err != nil {
			return snapErr("push-sum vector: %v", err)
		}
		cs, err := nd.pop.suite.NewCipherVector(r.sideCiphers)
		if err != nil {
			return err
		}
		if err := nd.pop.suite.UnmarshalCipherVectorInto(cs, cv); err != nil {
			return snapErr("push-sum vector: %v", err)
		}
		// stepAssign's construction: the restored values are freshly
		// decoded and exclusively owned.
		means, err = r.newMeans(cs, w)
		if err != nil {
			return snapErr("push-sum state: %v", err)
		}
		means.H = uint(h)
	default:
		return snapErr("means flag %d", hasMeans)
	}

	hasPending, err := u32("pending flag")
	if err != nil {
		return err
	}
	var pendingCT []Cipher
	switch hasPending {
	case 0:
	case 1:
		cv, err := fr.Bytes()
		if err != nil {
			return snapErr("pending ciphertexts: %v", err)
		}
		cs, err := nd.pop.suite.NewCipherVector(r.sideCiphers)
		if err != nil {
			return err
		}
		if err := nd.pop.suite.UnmarshalCipherVectorInto(cs, cv); err != nil {
			return snapErr("pending ciphertexts: %v", err)
		}
		pendingCT = cs
	default:
		return snapErr("pending flag %d", hasPending)
	}
	if pendingCT != nil && means == nil {
		return snapErr("pending ciphertexts without push-sum state")
	}

	nPartials, err := u32("partials count")
	if err != nil {
		return err
	}
	if nPartials > nd.pop.suite.Parties() {
		return snapErr("%d partial sets for %d parties", nPartials, nd.pop.suite.Parties())
	}
	if phase(phaseV) != phaseDecrypt && nPartials > 0 {
		return snapErr("partials outside decrypt phase")
	}
	var partials [][]Partial
	for i := 0; i < nPartials; i++ {
		idx, err := u32("partial index")
		if err != nil {
			return err
		}
		if idx < 1 || idx > nd.pop.suite.Parties() {
			return snapErr("partial index %d outside [1, %d]", idx, nd.pop.suite.Parties())
		}
		pv, err := fr.Bytes()
		if err != nil {
			return snapErr("partial values: %v", err)
		}
		ps, err := nd.pop.suite.UnmarshalPartialValues(idx, pv)
		if err != nil {
			return snapErr("partial values: %v", err)
		}
		if len(ps) != r.sideCiphers {
			return snapErr("partial set of %d values, want %d", len(ps), r.sideCiphers)
		}
		at, dup := slices.BinarySearchFunc(partials, idx, bySetIndex)
		if dup {
			return snapErr("duplicate partial index %d", idx)
		}
		partials = slices.Insert(partials, at, ps)
	}

	nAsked, err := u32("asked count")
	if err != nil {
		return err
	}
	if nAsked > r.population {
		return snapErr("%d asked peers in population %d", nAsked, r.population)
	}
	if phase(phaseV) != phaseDecrypt && nAsked > 0 {
		return snapErr("asked peers outside decrypt phase")
	}
	var asks []ask
	for i := 0; i < nAsked; i++ {
		id, err := u32("asked id")
		if err != nil {
			return err
		}
		if id >= r.population {
			return snapErr("asked id %d outside population %d", id, r.population)
		}
		if at, dup := slices.BinarySearchFunc(asks, p2p.NodeID(id), byAskPeer); !dup {
			asks = slices.Insert(asks, at, ask{peer: p2p.NodeID(id)})
		}
	}

	nOut, err := u32("outstanding count")
	if err != nil {
		return err
	}
	if nOut > nAsked {
		return snapErr("%d outstanding asks for %d asked peers", nOut, nAsked)
	}
	if phase(phaseV) != phaseDecrypt && nOut > 0 {
		return snapErr("outstanding asks outside decrypt phase")
	}
	for i := 0; i < nOut; i++ {
		id, err := u32("outstanding id")
		if err != nil {
			return err
		}
		if id >= r.population {
			return snapErr("outstanding id %d outside population %d", id, r.population)
		}
		ttl, err := u32("outstanding ttl")
		if err != nil {
			return err
		}
		if ttl < 1 || ttl > askTTL {
			return snapErr("outstanding ttl %d outside [1, %d]", ttl, askTTL)
		}
		at, asked := slices.BinarySearchFunc(asks, p2p.NodeID(id), byAskPeer)
		if !asked {
			return snapErr("outstanding ask for un-asked peer %d", id)
		}
		if asks[at].ttl > 0 {
			return snapErr("duplicate outstanding id %d", id)
		}
		asks[at].ttl = ttl
	}

	nHistory, err := u32("history count")
	if err != nil {
		return err
	}
	if nHistory > r.params.Iterations {
		return snapErr("%d history entries for %d iterations", nHistory, r.params.Iterations)
	}
	history := make([]IterationResult, 0, r.params.Iterations)
	for i := 0; i < nHistory; i++ {
		var rec IterationResult
		if rec.Iteration, err = u32("history iteration"); err != nil {
			return err
		}
		if rec.Epsilon, err = f64("history epsilon"); err != nil {
			return err
		}
		if rec.PerturbedCentroids, err = readFloats(fr, r.params.K, r.dim); err != nil {
			return snapErr("history centroids: %v", err)
		}
		counts, err := readFloats(fr, 1, r.params.K)
		if err != nil {
			return snapErr("history counts: %v", err)
		}
		rec.PerturbedCounts = counts[0]
		if rec.PerturbedInertia, err = f64("history inertia"); err != nil {
			return err
		}
		if rec.Assignment, err = u32("history assignment"); err != nil {
			return err
		}
		if rec.Assignment >= r.params.K {
			return snapErr("history assignment %d outside K=%d", rec.Assignment, r.params.K)
		}
		if rec.Displacement, err = f64("history displacement"); err != nil {
			return err
		}
		failed, err := u32("history failed flag")
		if err != nil {
			return err
		}
		if failed > 1 {
			return snapErr("history failed flag %d", failed)
		}
		rec.DecryptFailed = failed == 1
		if rec.CompletedAtCycle, err = u32("history cycle"); err != nil {
			return err
		}
		history = append(history, rec)
	}
	if err := fr.Done(); err != nil {
		return snapErr("trailing state bytes: %v", err)
	}

	// Everything validated — commit.
	p.rngSrc.SetState(h.rngState)
	p.phase = phase(phaseV)
	p.iter = iter
	p.roundsDone = roundsDone
	p.assignment = assignment
	p.waitCycles = waitCycles
	p.staleDrops = staleDrops
	p.decryptFail = decryptFail
	p.diptych.Iteration = dipIter
	p.diptych.Centroids = centroids
	p.diptych.Means = means
	p.pendingCT = pendingCT
	if pendingCT != nil {
		// The restored opening is the participant's own, and so is the
		// request stepDecrypt keeps asking with (see freezeOpening).
		p.opening, p.req = pendingCT, &p.ownReq
		p.ownReq = decryptRequest{Iter: iter, Ciphers: pendingCT}
	}
	p.partials = partials
	p.asks = asks
	p.history = history
	return nil
}
