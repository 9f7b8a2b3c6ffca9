// Package wire provides stable binary encodings for what the protocol
// moves between devices: vectors of ciphertexts or partial decryptions,
// vectors of accounted-backend residues, the length-prefixed fields of
// composite messages, and stream framing. A vector artifact is
//
//	[1 byte kind] [1 byte version] [4-byte length = 4] [4-byte count] [count fixed-width bodies]
//
// where each body is the big-endian magnitude of a non-negative residue,
// zero-padded to the width its modulus fixes. All values in the protocol
// are non-negative residues, so no sign bytes are needed.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"slices"

	"chiaroscuro/internal/crypto/damgardjurik"
)

// Artifact kind tags. Kinds 0x01–0x03 (single public key, key share and
// partial decryption) are retired and must not be reused.
const kindCipher byte = 0x04

const version byte = 1

// Encoding errors.
var (
	ErrTruncated = errors.New("wire: truncated input")
	ErrBadKind   = errors.New("wire: unexpected artifact kind")
	ErrBadVer    = errors.New("wire: unsupported version")
)

// appendField appends a length-prefixed big-endian field.
func appendField(buf []byte, payload []byte) []byte {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(payload)))
	buf = append(buf, l[:]...)
	return append(buf, payload...)
}

func appendUint32(buf []byte, v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return appendField(buf, b[:])
}

// reader walks length-prefixed fields.
type reader struct {
	buf []byte
}

func (r *reader) field() ([]byte, error) {
	if len(r.buf) < 4 {
		return nil, ErrTruncated
	}
	n := binary.BigEndian.Uint32(r.buf[:4])
	r.buf = r.buf[4:]
	if uint32(len(r.buf)) < n {
		return nil, ErrTruncated
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out, nil
}

func (r *reader) uint32() (uint32, error) {
	f, err := r.scalar(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(f), nil
}

// scalar reads one length-prefixed field of exactly n bytes.
func (r *reader) scalar(n int) ([]byte, error) {
	f, err := r.field()
	if err != nil {
		return nil, err
	}
	if len(f) != n {
		return nil, fmt.Errorf("wire: scalar field of %d bytes, want %d", len(f), n)
	}
	return f, nil
}

func (r *reader) done() error {
	if len(r.buf) != 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf))
	}
	return nil
}

// checkHeader returns a reader over the fields after an artifact's
// header, by value so that a decode allocates nothing for it.
func checkHeader(buf []byte, kind byte) (reader, error) {
	if len(buf) < 2 {
		return reader{}, ErrTruncated
	}
	if buf[0] != kind {
		return reader{}, fmt.Errorf("%w: got 0x%02x, want 0x%02x", ErrBadKind, buf[0], kind)
	}
	if buf[1] != version {
		return reader{}, fmt.Errorf("%w: %d", ErrBadVer, buf[1])
	}
	return reader{buf: buf[2:]}, nil
}

// MarshalCiphertextVector encodes a vector of ciphertexts (one gossip
// message's payload) compactly: header, count, then fixed-width bodies.
func MarshalCiphertextVector(pk *damgardjurik.PublicKey, cs []*big.Int) ([]byte, error) {
	return AppendCiphertextVector(nil, pk, cs, self)
}

// AppendCiphertextVector appends MarshalCiphertextVector's encoding of
// the ciphertexts value(es[0]), value(es[1]), … to dst — es is the
// ciphertexts themselves (value returns its argument) or elements that
// carry one, such as partial decryptions. dst grows at most once and
// every body is written in place; on error it is returned unextended.
func AppendCiphertextVector[E any](dst []byte, pk *damgardjurik.PublicKey, es []E, value func(E) *big.Int) ([]byte, error) {
	if pk == nil {
		return dst, errors.New("wire: nil public key")
	}
	width := pk.CiphertextBytes()
	start := len(dst)
	buf := slices.Grow(dst, vectorBytes(width, len(es)))
	buf = append(buf, kindCipher, version)
	buf = appendUint32(buf, uint32(len(es)))
	for i, e := range es {
		c := value(e)
		if pk.CheckCiphertext(c) != nil {
			return buf[:start], fmt.Errorf("wire: ciphertext %d out of range", i)
		}
		n := len(buf)
		buf = buf[:n+width] // inside the capacity reserved above
		c.FillBytes(buf[n:])
	}
	return buf, nil
}

// self is the value accessor of a vector of plain integers.
func self(v *big.Int) *big.Int { return v }

// UnmarshalCiphertextVector decodes a ciphertext vector into fresh
// integers.
func UnmarshalCiphertextVector(pk *damgardjurik.PublicKey, buf []byte) ([]*big.Int, error) {
	out, err := freshVector(buf, kindCipher, pk.CiphertextBytes())
	if err != nil {
		return nil, err
	}
	if err := UnmarshalCiphertextVectorInto(pk, out, buf); err != nil {
		return nil, err
	}
	return out, nil
}

// UnmarshalCiphertextVectorInto decodes a ciphertext vector of exactly
// len(dst) elements into dst's integers (SetBytes, so an integer with
// room for the ciphertext width does not allocate), validating every
// element against the key. On error dst's values are unspecified.
func UnmarshalCiphertextVectorInto(pk *damgardjurik.PublicKey, dst []*big.Int, buf []byte) error {
	width := pk.CiphertextBytes()
	body, err := vectorInto(buf, kindCipher, width, dst)
	if err != nil {
		return err
	}
	for i, c := range dst {
		c.SetBytes(body[i*width : (i+1)*width])
		if pk.CheckCiphertext(c) != nil {
			return fmt.Errorf("wire: ciphertext %d out of range", i)
		}
	}
	return nil
}

// vectorBytes is the encoded size of a vector (ciphertext or residue) of
// count elements of the given fixed width: the artifact header, the
// count field and the bodies.
func vectorBytes(width, count int) int { return 2 + 4 + 4 + count*width }

// readVector checks a vector artifact's header and that its body holds
// exactly the declared count of width-byte elements, and returns both.
func readVector(buf []byte, kind byte, width int) (count int, body []byte, err error) {
	r, err := checkHeader(buf, kind)
	if err != nil {
		return 0, nil, err
	}
	c, err := r.uint32()
	if err != nil {
		return 0, nil, err
	}
	if uint64(len(r.buf)) != uint64(c)*uint64(width) {
		return 0, nil, fmt.Errorf("wire: vector body %d bytes, want %d", len(r.buf), uint64(c)*uint64(width))
	}
	return int(c), r.buf, nil
}

// vectorInto is readVector for a decode into dst: the vector must hold
// exactly len(dst) elements.
func vectorInto(buf []byte, kind byte, width int, dst []*big.Int) ([]byte, error) {
	count, body, err := readVector(buf, kind, width)
	if err == nil && count != len(dst) {
		err = fmt.Errorf("wire: vector of %d elements, want %d", count, len(dst))
	}
	return body, err
}

// freshVector returns fresh integers for the vector buf holds. The body
// length is checked first, so a hostile count allocates nothing.
func freshVector(buf []byte, kind byte, width int) ([]*big.Int, error) {
	count, _, err := readVector(buf, kind, width)
	if err != nil {
		return nil, err
	}
	out := make([]*big.Int, count)
	for i := range out {
		out[i] = new(big.Int)
	}
	return out, nil
}
