package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"slices"
)

// residue.go encodes vectors of plaintext-ring residues — the accounted
// backend's "ciphertexts" and partial decryptions. The demonstration
// platform disables homomorphic operations but still moves the ring
// values between participants; a networked accounted deployment needs a
// stable encoding for them just like the real backend's artifacts. The
// layout mirrors MarshalCiphertextVector: header, count, then
// fixed-width big-endian bodies against the ring modulus, so message
// sizes stay predictable.

// kindResidueVec tags an accounted-backend residue vector.
const kindResidueVec byte = 0x05

// residueWidth is the fixed body width of one residue of the ring Z_m.
func residueWidth(m *big.Int) int { return (m.BitLen() + 7) / 8 }

// MarshalResidueVector encodes a vector of residues of Z_m (each in
// [0, m)), fixed-width against the modulus. Unlike real ciphertexts,
// zero is a valid residue.
func MarshalResidueVector(m *big.Int, vs []*big.Int) ([]byte, error) {
	return AppendResidueVector(nil, m, vs, self)
}

// AppendResidueVector appends MarshalResidueVector's encoding of the
// residues value(es[0]), value(es[1]), … to dst (see
// AppendCiphertextVector). dst grows at most once and every body is
// written in place; on error it is returned unextended.
func AppendResidueVector[E any](dst []byte, m *big.Int, es []E, value func(E) *big.Int) ([]byte, error) {
	if m == nil || m.Sign() <= 0 {
		return dst, errors.New("wire: invalid residue modulus")
	}
	width := residueWidth(m)
	start := len(dst)
	buf := slices.Grow(dst, vectorBytes(width, len(es)))
	buf = append(buf, kindResidueVec, version)
	buf = appendUint32(buf, uint32(len(es)))
	for i, e := range es {
		v := value(e)
		if v == nil || v.Sign() < 0 || v.Cmp(m) >= 0 {
			return buf[:start], fmt.Errorf("wire: residue %d outside ring", i)
		}
		n := len(buf)
		buf = buf[:n+width] // inside the capacity reserved above
		v.FillBytes(buf[n:])
	}
	return buf, nil
}

// UnmarshalResidueVector decodes a residue vector into fresh integers.
func UnmarshalResidueVector(m *big.Int, buf []byte) ([]*big.Int, error) {
	if m == nil || m.Sign() <= 0 {
		return nil, errors.New("wire: invalid residue modulus")
	}
	out, err := freshVector(buf, kindResidueVec, residueWidth(m))
	if err != nil {
		return nil, err
	}
	if err := UnmarshalResidueVectorInto(m, out, buf); err != nil {
		return nil, err
	}
	return out, nil
}

// UnmarshalResidueVectorInto decodes a residue vector of exactly len(dst)
// elements into dst's integers (SetBytes, so an integer with room for
// the residue width does not allocate), validating every element against
// the modulus. On error dst's values are unspecified.
func UnmarshalResidueVectorInto(m *big.Int, dst []*big.Int, buf []byte) error {
	if m == nil || m.Sign() <= 0 {
		return errors.New("wire: invalid residue modulus")
	}
	width := residueWidth(m)
	body, err := vectorInto(buf, kindResidueVec, width, dst)
	if err != nil {
		return err
	}
	for i, v := range dst {
		v.SetBytes(body[i*width : (i+1)*width])
		if v.Cmp(m) >= 0 {
			return fmt.Errorf("wire: residue %d outside ring", i)
		}
	}
	return nil
}

// AppendUint32 appends a length-prefixed 4-byte big-endian scalar — the
// exported form of the internal field builder, for composite messages
// (the transport envelope) that embed scalars next to wire artifacts.
func AppendUint32(buf []byte, v uint32) []byte { return appendUint32(buf, v) }

// AppendUint64 appends a length-prefixed 8-byte big-endian scalar — the
// fingerprints, sequence numbers, RNG states and float bit patterns of
// the transport envelope, checkpoints and snapshots.
func AppendUint64(buf []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(buf, 8), v)
}

// AppendBytes appends one length-prefixed opaque field.
func AppendBytes(buf, payload []byte) []byte { return appendField(buf, payload) }

// BeginField opens a length-prefixed opaque field whose payload the
// caller appends to the returned buffer next; EndField, given the
// returned mark, closes it. The bytes are AppendBytes's, without
// building the payload somewhere else first — how a message nests
// another (a checkpoint its participant snapshot, a snapshot its state
// blob) inside one buffer.
func BeginField(buf []byte) (_ []byte, mark int) {
	buf = append(buf, 0, 0, 0, 0)
	return buf, len(buf)
}

// EndField writes the length of buf[mark:] into the prefix BeginField
// reserved.
func EndField(buf []byte, mark int) []byte {
	binary.BigEndian.PutUint32(buf[mark-4:], uint32(len(buf)-mark))
	return buf
}

// FieldReader walks the length-prefixed fields of a composite message.
type FieldReader struct {
	r reader
}

// NewFieldReader wraps buf (no artifact header expected).
func NewFieldReader(buf []byte) *FieldReader { return &FieldReader{r: reader{buf: buf}} }

// Uint32 reads one length-prefixed 4-byte scalar field.
func (fr *FieldReader) Uint32() (uint32, error) { return fr.r.uint32() }

// Uint64 reads one length-prefixed 8-byte scalar field.
func (fr *FieldReader) Uint64() (uint64, error) {
	f, err := fr.r.scalar(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(f), nil
}

// Bytes reads one length-prefixed opaque field. The returned slice
// aliases the input buffer.
func (fr *FieldReader) Bytes() ([]byte, error) { return fr.r.field() }

// Fixed reads n raw bytes — a run whose width the format fixes, so it
// carries no length prefix. The returned slice aliases the input buffer.
func (fr *FieldReader) Fixed(n int) ([]byte, error) {
	if n < 0 || len(fr.r.buf) < n {
		return nil, ErrTruncated
	}
	out := fr.r.buf[:n]
	fr.r.buf = fr.r.buf[n:]
	return out, nil
}

// Rest returns the unread remainder of the buffer.
func (fr *FieldReader) Rest() []byte { return fr.r.buf }

// Done errors if any bytes remain unread.
func (fr *FieldReader) Done() error { return fr.r.done() }
