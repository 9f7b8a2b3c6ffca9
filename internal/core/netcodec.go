package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"
	"slices"

	"chiaroscuro/internal/gossip"
	"chiaroscuro/internal/wire"
)

// netcodec.go serializes the participant's message payloads for a real
// network transport (internal/transport): the gossip exchange, the
// decryption request and the decryption response. The in-process
// engines pass these payloads by pointer; a daemon moves the identical
// information as wire artifacts inside length-prefixed frames. Every
// decode validates shape and range against the node's own run
// configuration, so a malformed or hostile remote peer can be rejected
// before its bytes touch the push-sum state.

// Payload kind tags (first byte of an encoded payload).
const (
	netGossip          byte = 0x01
	netDecryptRequest  byte = 0x02
	netDecryptResponse byte = 0x03
)

// AppendCipherVector implements CipherSuite: accounted ciphers are ring
// residues, encoded fixed-width against the plaintext modulus.
func (s *plainSuite) AppendCipherVector(dst []byte, cs []Cipher) ([]byte, error) {
	return wire.AppendResidueVector(dst, s.m, cs, cipherValue)
}

// UnmarshalCipherVectorInto implements CipherSuite. Every decoded
// residue is ring-validated by the wire layer.
func (s *plainSuite) UnmarshalCipherVectorInto(dst []Cipher, buf []byte) error {
	return wire.UnmarshalResidueVectorInto(s.m, dst, buf)
}

// AppendPartialValues implements CipherSuite: accounted partials are
// ring residues too (the shared plaintext under threshold semantics).
func (s *plainSuite) AppendPartialValues(dst []byte, ps []Partial) ([]byte, error) {
	return wire.AppendResidueVector(dst, s.m, ps, partialValue)
}

// UnmarshalPartialValues implements CipherSuite.
func (s *plainSuite) UnmarshalPartialValues(index int, buf []byte) ([]Partial, error) {
	vs, err := wire.UnmarshalResidueVector(s.m, buf)
	if err != nil {
		return nil, err
	}
	return stampPartials(index, vs), nil
}

// cipherValue and partialValue are the wire codecs' value accessors for
// cipher and partial vectors.
func cipherValue(c Cipher) *big.Int   { return c }
func partialValue(p Partial) *big.Int { return p.Value }

// stampPartials pairs decoded partial values with their responder's
// key-share index.
func stampPartials(index int, vs []*big.Int) []Partial {
	out := make([]Partial, len(vs))
	for i, v := range vs {
		out[i] = Partial{Index: index, Value: v}
	}
	return out
}

// appendFloats appends one length-prefixed field of IEEE-754 bit
// patterns (big-endian), one per coordinate, row-major.
func appendFloats(buf []byte, rows [][]float64) []byte {
	buf, mark := wire.BeginField(buf)
	for _, row := range rows {
		for _, v := range row {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return wire.EndField(buf, mark)
}

// floatsBytes is appendFloats's encoded size for rows.
func floatsBytes(rows [][]float64) int {
	n := 4
	for _, row := range rows {
		n += 8 * len(row)
	}
	return n
}

// readFloats reads one floats field of exactly rows×cols coordinates,
// into rows carved from one backing array.
func readFloats(fr *wire.FieldReader, rows, cols int) ([][]float64, error) {
	body, err := fr.Bytes()
	if err != nil {
		return nil, err
	}
	if len(body) != 8*rows*cols {
		return nil, fmt.Errorf("core: centroid field %d bytes, want %d", len(body), 8*rows*cols)
	}
	out := make([][]float64, rows)
	flat := make([]float64, rows*cols)
	for j := range out {
		row := flat[j*cols : (j+1)*cols : (j+1)*cols]
		for t := range row {
			row[t] = math.Float64frombits(binary.BigEndian.Uint64(body))
			body = body[8:]
		}
		out[j] = row
	}
	return out, nil
}

// vectorShape reads the suite's cipher-vector encoding off its own
// encoder, once per Node: an n-cipher vector (or n partial values, which
// share it on both suites) encodes to head + n·width bytes. width is the
// suite's wire width, which on the accounted suite is the ring's, not
// CipherBytes (that one mimics the real backend for the accounting).
func vectorShape(s CipherSuite) (head, width int, err error) {
	one, err := s.NewCipherVector(1)
	if err != nil {
		return 0, 0, err
	}
	empty, err := s.AppendCipherVector(nil, nil)
	if err != nil {
		return 0, 0, err
	}
	full, err := s.AppendCipherVector(nil, one)
	if err != nil {
		return 0, 0, err
	}
	return len(empty), len(full) - len(empty), nil
}

// vectorField is the encoded size of a length-prefixed field holding an
// n-element cipher or partial-value vector.
func (nd *Node) vectorField(n int) int { return 4 + nd.vecHead + n*nd.vecWidth }

// EncodePayload serializes one protocol payload (as passed to Env.Send)
// into a buffer of its own: AppendPayload(nil, payload).
func (nd *Node) EncodePayload(payload any) ([]byte, error) {
	return nd.AppendPayload(nil, payload)
}

// AppendPayload appends the wire encoding of one protocol payload (as
// passed to Env.Send) to dst. It accepts exactly the payload types the
// participant emits. dst grows at most once, to the exact encoded size,
// and every field — the cipher vector included, inside a
// wire.BeginField/EndField field — is written in place, so a caller
// that reuses its buffer encodes without allocating. On error dst comes
// back unextended.
func (nd *Node) AppendPayload(dst []byte, payload any) ([]byte, error) {
	s := nd.pop.suite
	var (
		buf []byte
		err error
	)
	switch pl := payload.(type) {
	case *gossipPayload:
		if pl.Msg == nil {
			return dst, errors.New("core: gossip payload without message")
		}
		buf = slices.Grow(dst, 1+8+floatsBytes(pl.Centroids)+9+nd.vectorField(len(pl.Msg.V)))
		buf = append(buf, netGossip)
		buf = wire.AppendUint32(buf, uint32(pl.Iter))
		buf = appendFloats(buf, pl.Centroids)
		// Weight and halving exponent travel as one fixed 9-byte run, no
		// length prefix: the exponent rides in one of the four bytes the
		// weight's prefix used to take. It fits: a participant never emits
		// past the halving budget, which NewNode caps at 255.
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(pl.Msg.W))
		buf = append(buf, byte(pl.Msg.H))
		buf, err = appendVectorField(buf, pl.Msg.V, s.AppendCipherVector)
	case *decryptRequest:
		buf = slices.Grow(dst, 1+8+nd.vectorField(len(pl.Ciphers)))
		buf = append(buf, netDecryptRequest)
		buf = wire.AppendUint32(buf, uint32(pl.Iter))
		buf, err = appendVectorField(buf, pl.Ciphers, s.AppendCipherVector)
	case *decryptResponse:
		if len(pl.Partials) == 0 {
			return dst, errors.New("core: empty decrypt response")
		}
		buf = slices.Grow(dst, 1+8+8+nd.vectorField(len(pl.Partials)))
		buf = append(buf, netDecryptResponse)
		buf = wire.AppendUint32(buf, uint32(pl.Iter))
		buf = wire.AppendUint32(buf, uint32(pl.Partials[0].Index))
		buf, err = appendVectorField(buf, pl.Partials, s.AppendPartialValues)
	default:
		return dst, fmt.Errorf("core: unencodable payload type %T", payload)
	}
	if err != nil {
		return buf[:len(dst)], err
	}
	return buf, nil
}

// appendVectorField appends one length-prefixed field holding the
// vector es, which enc (a suite's append codec) writes in place.
func appendVectorField[E any](buf []byte, es []E, enc func([]byte, []E) ([]byte, error)) ([]byte, error) {
	buf, mark := wire.BeginField(buf)
	buf, err := enc(buf, es)
	return wire.EndField(buf, mark), err
}

// gossipSlab lends DecodePayload the storage for one gossip vector:
// a recycled slab when one is free, a new one while fewer than
// population−1 exist — a fault-free peer emits at most one gossip per
// epoch, so that is the largest in-degree a step can see — and beyond
// that fresh storage nobody recycles (a hostile peer, or decoding
// without ever stepping). lent reports a recycled or new slab, which
// Step hands back.
func (nd *Node) gossipSlab() (cs []Cipher, lent bool, err error) {
	if n := len(nd.freeSlabs); n > 0 {
		cs, nd.freeSlabs = nd.freeSlabs[n-1], nd.freeSlabs[:n-1]
		return cs, true, nil
	}
	r := nd.pt.run
	cs, err = r.suite.NewCipherVector(r.sideCiphers)
	if err != nil || len(nd.slabs) >= r.population-1 {
		return cs, false, err
	}
	nd.slabs = append(nd.slabs, cs)
	return cs, true, nil
}

// checkShare is the one check of an incoming push-sum share (weight w,
// halving exponent h, ciphers vs). The exponent prices the merge (up to
// h squarings per cipher) and past the budget the share decodes to
// nothing: a peer can buy neither. A hostile share must also have a
// finite weight in [0, population] and valid ciphers. The daemon's
// decoder treats every peer as hostile, a simulation only under a
// byzantine plan (runShared.validate): honest duplication pushes
// push-sum weight past the population.
func (r *runShared) checkShare(w float64, h uint, vs []Cipher, hostile bool) error {
	if hostile && (math.IsNaN(w) || math.IsInf(w, 0) || w < 0 || w > float64(r.population)) {
		return fmt.Errorf("core: implausible push-sum weight %g", w)
	}
	if h > r.preScale {
		return fmt.Errorf("core: halving exponent %d beyond the pre-scale budget %d", h, r.preScale)
	}
	if hostile {
		for _, c := range vs {
			if err := r.suite.ValidateCipher(c); err != nil {
				return err
			}
		}
	}
	return nil
}

// DecodePayload parses and validates one payload received from a peer.
// Shape and range checks are strict against this node's run
// configuration — iteration tags inside the schedule, centroid matrices
// exactly K×dim of finite values, cipher vectors exactly the encrypted
// side's length, push-sum weights finite and population-bounded, halving
// exponents within the pre-scale budget — so a peer
// that violates the protocol is rejected here with an error instead of
// desynchronizing the participant state machine.
//
// A gossip payload's ciphers live in one of the node's receive slabs:
// the payload is valid until this node's next Step returns, which
// recycles every slab (Absorb only reads a message, so nothing the
// step keeps aliases one). Decrypt requests and responses decode into
// fresh storage: a responder memoizes its partials by the identity of
// the request's cipher slice (serveDecrypt), which a recycled slab
// could alias.
func (nd *Node) DecodePayload(buf []byte) (any, error) {
	if len(buf) < 1 {
		return nil, errors.New("core: empty payload")
	}
	r := nd.pt.run
	fr := wire.NewFieldReader(buf[1:])
	iterU, err := fr.Uint32()
	if err != nil {
		return nil, err
	}
	iter := int(iterU)
	if iter >= r.params.Iterations {
		return nil, fmt.Errorf("core: payload iteration %d outside schedule of %d", iter, r.params.Iterations)
	}
	switch buf[0] {
	case netGossip:
		centroids, err := readFloats(fr, r.params.K, r.dim)
		if err != nil {
			return nil, err
		}
		for _, row := range centroids {
			for _, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, errors.New("core: non-finite centroid coordinate")
				}
			}
		}
		wh, err := fr.Fixed(9)
		if err != nil {
			return nil, err
		}
		// A peer is hostile until checked; its ciphers are checked by
		// the vector decode below.
		w, h := math.Float64frombits(binary.BigEndian.Uint64(wh)), uint(wh[8])
		if err := r.checkShare(w, h, nil, true); err != nil {
			return nil, err
		}
		cv, err := fr.Bytes()
		if err != nil {
			return nil, err
		}
		if err := fr.Done(); err != nil {
			return nil, err
		}
		cs, lent, err := nd.gossipSlab()
		if err != nil {
			return nil, err
		}
		if err := nd.pop.suite.UnmarshalCipherVectorInto(cs, cv); err != nil {
			if lent {
				nd.freeSlabs = append(nd.freeSlabs, cs)
			}
			return nil, fmt.Errorf("core: gossip vector: %w", err)
		}
		return &gossipPayload{
			Iter:      iter,
			Centroids: centroids,
			Msg:       &gossip.Message[Cipher]{V: cs, W: w, H: h},
		}, nil
	case netDecryptRequest:
		cv, err := fr.Bytes()
		if err != nil {
			return nil, err
		}
		if err := fr.Done(); err != nil {
			return nil, err
		}
		cs, err := nd.pop.suite.NewCipherVector(r.sideCiphers)
		if err != nil {
			return nil, err
		}
		if err := nd.pop.suite.UnmarshalCipherVectorInto(cs, cv); err != nil {
			return nil, fmt.Errorf("core: decrypt request: %w", err)
		}
		return &decryptRequest{Iter: iter, Ciphers: cs}, nil
	case netDecryptResponse:
		idxU, err := fr.Uint32()
		if err != nil {
			return nil, err
		}
		idx := int(idxU)
		if idx < 1 || idx > r.suite.Parties() {
			return nil, fmt.Errorf("core: partial index %d outside [1, %d]", idx, r.suite.Parties())
		}
		pv, err := fr.Bytes()
		if err != nil {
			return nil, err
		}
		if err := fr.Done(); err != nil {
			return nil, err
		}
		ps, err := nd.pop.suite.UnmarshalPartialValues(idx, pv)
		if err != nil {
			return nil, err
		}
		if len(ps) != r.sideCiphers {
			return nil, fmt.Errorf("core: decrypt response of %d partials, want %d", len(ps), r.sideCiphers)
		}
		return &decryptResponse{Iter: iter, Partials: ps}, nil
	default:
		return nil, fmt.Errorf("core: unknown payload kind 0x%02x", buf[0])
	}
}
