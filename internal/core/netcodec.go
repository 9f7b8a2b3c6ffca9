package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"

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

// MarshalCipherVector implements CipherSuite: accounted ciphers are
// ring residues, encoded fixed-width against the plaintext modulus.
func (s *plainSuite) MarshalCipherVector(cs []Cipher) ([]byte, error) {
	return wire.MarshalResidueVector(s.m, cs)
}

// UnmarshalCipherVector implements CipherSuite. Every decoded
// residue is ring-validated by the wire layer; the returned ciphers are
// freshly allocated, never aliasing arena scratch.
func (s *plainSuite) UnmarshalCipherVector(buf []byte) ([]Cipher, error) {
	return wire.UnmarshalResidueVector(s.m, buf)
}

// MarshalPartialValues implements CipherSuite: accounted partials
// are ring residues too (the shared plaintext under threshold
// semantics).
func (s *plainSuite) MarshalPartialValues(ps []Partial) ([]byte, error) {
	vs := make([]*big.Int, len(ps))
	for i, p := range ps {
		if p.Value == nil {
			return nil, errors.New("core: partial with nil value")
		}
		vs[i] = p.Value
	}
	return wire.MarshalResidueVector(s.m, vs)
}

// UnmarshalPartialValues implements CipherSuite.
func (s *plainSuite) UnmarshalPartialValues(index int, buf []byte) ([]Partial, error) {
	vs, err := wire.UnmarshalResidueVector(s.m, buf)
	if err != nil {
		return nil, err
	}
	out := make([]Partial, len(vs))
	for i, v := range vs {
		out[i] = Partial{Index: index, Value: v}
	}
	return out, nil
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

// readFloats reads one floats field of exactly rows×cols coordinates.
func readFloats(fr *wire.FieldReader, rows, cols int) ([][]float64, error) {
	body, err := fr.Bytes()
	if err != nil {
		return nil, err
	}
	if len(body) != 8*rows*cols {
		return nil, fmt.Errorf("core: centroid field %d bytes, want %d", len(body), 8*rows*cols)
	}
	out := make([][]float64, rows)
	for j := range out {
		row := make([]float64, cols)
		for t := range row {
			row[t] = math.Float64frombits(binary.BigEndian.Uint64(body))
			body = body[8:]
		}
		out[j] = row
	}
	return out, nil
}

// EncodePayload serializes one protocol payload (as passed to
// Env.Send) for the network transport. It accepts exactly the payload
// types the participant emits.
func (nd *Node) EncodePayload(payload any) ([]byte, error) {
	switch pl := payload.(type) {
	case *gossipPayload:
		if pl.Msg == nil {
			return nil, errors.New("core: gossip payload without message")
		}
		buf := []byte{netGossip}
		buf = wire.AppendUint32(buf, uint32(pl.Iter))
		buf = appendFloats(buf, pl.Centroids)
		// Weight and halving exponent travel as one fixed 9-byte run, no
		// length prefix: the exponent rides in one of the four bytes the
		// weight's prefix used to take. It fits: a participant never emits
		// past the halving budget, which NewNode caps at 255.
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(pl.Msg.W))
		buf = append(buf, byte(pl.Msg.H))
		cv, err := nd.rs.suite.MarshalCipherVector(pl.Msg.V)
		if err != nil {
			return nil, err
		}
		return wire.AppendBytes(buf, cv), nil
	case *decryptRequest:
		buf := []byte{netDecryptRequest}
		buf = wire.AppendUint32(buf, uint32(pl.Iter))
		cv, err := nd.rs.suite.MarshalCipherVector(pl.Ciphers)
		if err != nil {
			return nil, err
		}
		return wire.AppendBytes(buf, cv), nil
	case *decryptResponse:
		if len(pl.Partials) == 0 {
			return nil, errors.New("core: empty decrypt response")
		}
		buf := []byte{netDecryptResponse}
		buf = wire.AppendUint32(buf, uint32(pl.Iter))
		buf = wire.AppendUint32(buf, uint32(pl.Partials[0].Index))
		pv, err := nd.rs.suite.MarshalPartialValues(pl.Partials)
		if err != nil {
			return nil, err
		}
		return wire.AppendBytes(buf, pv), nil
	default:
		return nil, fmt.Errorf("core: unencodable payload type %T", payload)
	}
}

// DecodePayload parses and validates one payload received from a peer.
// Shape and range checks are strict against this node's run
// configuration — iteration tags inside the schedule, centroid matrices
// exactly K×dim of finite values, cipher vectors exactly the fused
// length, push-sum weights finite and population-bounded, halving
// exponents within the pre-scale budget — so a peer
// that violates the protocol is rejected here with an error instead of
// desynchronizing the participant state machine.
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
		w := math.Float64frombits(binary.BigEndian.Uint64(wh))
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 || w > float64(r.population) {
			return nil, fmt.Errorf("core: implausible push-sum weight %g", w)
		}
		// The exponent prices the merge (up to h squarings per cipher) and
		// past the budget the share decodes to nothing: a peer can buy
		// neither.
		h := uint(wh[8])
		if h > r.preScale {
			return nil, fmt.Errorf("core: halving exponent %d beyond the pre-scale budget %d", h, r.preScale)
		}
		cv, err := fr.Bytes()
		if err != nil {
			return nil, err
		}
		if err := fr.Done(); err != nil {
			return nil, err
		}
		cs, err := nd.rs.suite.UnmarshalCipherVector(cv)
		if err != nil {
			return nil, err
		}
		if len(cs) != 2*r.sideCiphers {
			return nil, fmt.Errorf("core: gossip vector of %d ciphers, want %d", len(cs), 2*r.sideCiphers)
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
		cs, err := nd.rs.suite.UnmarshalCipherVector(cv)
		if err != nil {
			return nil, err
		}
		if len(cs) != r.sideCiphers {
			return nil, fmt.Errorf("core: decrypt request of %d ciphers, want %d", len(cs), r.sideCiphers)
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
		ps, err := nd.rs.suite.UnmarshalPartialValues(idx, pv)
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
