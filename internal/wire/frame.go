package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// frame.go is the streaming layer of the wire format: artifacts move
// between daemon processes over byte streams (net.Conn), which deliver
// arbitrary partial reads, so every message travels inside a
// length-prefixed frame:
//
//	[4-byte big-endian payload length] [payload]
//
// ReadFrame and WriteFrame move one frame per call and never touch a
// byte beyond it, which is what a handshake needs: the connection is
// handed on afterwards. A link's steady traffic goes through AppendFrame
// (several frames, one Write) and FrameReader (a short frame, one Read).
// Everything above them works on whole []byte messages exactly like the
// in-process code does.

// MaxFrameBytes bounds the payload length accepted from a stream. A
// frame carries one protocol message — a gossip vector, a decryption
// exchange or a handshake — whose size is a few ciphertext widths times
// the gossip vector length; even a packed 2048-bit run at large K stays
// orders of magnitude below this. Without the bound, four adversarial
// header bytes could demand a 4 GiB allocation.
const MaxFrameBytes = 16 << 20

// Framing errors.
var (
	// ErrFrameTooBig reports a length prefix above MaxFrameBytes. The
	// stream is unrecoverable after it: the reader cannot know where the
	// next frame starts.
	ErrFrameTooBig = errors.New("wire: frame exceeds size bound")
)

// WriteFrame writes one length-prefixed frame. Short writes are handled
// by the io.Writer contract (Write returns an error unless all bytes
// are consumed).
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameBytes {
		return fmt.Errorf("%w: %d > %d", ErrFrameTooBig, len(payload), MaxFrameBytes)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	// Two writes, not one concatenated buffer: the header array lives on
	// the stack and the payload is written as-is, so framing never
	// copies the message. On a socket that is two system calls; a caller
	// that sends frames in a row batches them with AppendFrame instead.
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// AppendFrame appends one length-prefixed frame to buf — the
// allocation-conscious form for callers that batch several frames into
// one write.
func AppendFrame(buf, payload []byte) ([]byte, error) {
	if len(payload) > MaxFrameBytes {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooBig, len(payload), MaxFrameBytes)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...), nil
}

// ReadFrame reads one length-prefixed frame, tolerating arbitrarily
// fragmented reads (io.ReadFull under the hood — a net.Conn may deliver
// the header one byte at a time). A clean end of stream between frames
// returns io.EOF; a stream that ends inside a frame returns
// io.ErrUnexpectedEOF; a length prefix above MaxFrameBytes returns
// ErrFrameTooBig before any payload allocation.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			// Part of a header arrived, then the stream died: that is a
			// truncated frame, not a clean close.
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	payload, err := newPayload(hdr[:])
	if err != nil {
		return nil, err
	}
	if err := readPayload(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// newPayload allocates the payload a frame header announces, refusing a
// length above MaxFrameBytes first.
func newPayload(hdr []byte) ([]byte, error) {
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooBig, n, MaxFrameBytes)
	}
	return make([]byte, n), nil
}

// readPayload fills the rest of a frame's payload; the stream ending
// anywhere inside it is a truncated frame.
func readPayload(r io.Reader, rest []byte) error {
	if len(rest) == 0 {
		return nil
	}
	if _, err := io.ReadFull(r, rest); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// frameReadBuf is FrameReader's buffer: room for a few barrier ticks (22
// bytes each on the wire), the frame a mesh link reads K-1 times per
// epoch. It is deliberately no bigger — a 16-node mesh in one process
// holds 240 of these — and a payload that does not fit is read straight
// into its own allocation, not through the buffer.
const frameReadBuf = 64

// FrameReader reads the frames of one stream through a small buffer, so
// a short frame costs one Read where ReadFrame spends two (header, then
// payload) and frames that arrive together are parsed out of the same
// Read. It reads ahead, so the stream belongs to it from the first call
// on. Results and errors are ReadFrame's.
type FrameReader struct {
	r      io.Reader
	lo, hi int // buf[lo:hi] is read and not yet consumed
	buf    [frameReadBuf]byte
}

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// ReadFrame reads the next frame.
func (fr *FrameReader) ReadFrame() ([]byte, error) {
	if fr.hi-fr.lo < 4 {
		fr.hi = copy(fr.buf[:], fr.buf[fr.lo:fr.hi])
		fr.lo = 0
		n, err := io.ReadAtLeast(fr.r, fr.buf[fr.hi:], 4-fr.hi)
		fr.hi += n
		if err != nil {
			if fr.hi > 0 && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	payload, err := newPayload(fr.buf[fr.lo : fr.lo+4])
	if err != nil {
		return nil, err
	}
	fr.lo += 4
	n := copy(payload, fr.buf[fr.lo:fr.hi])
	fr.lo += n
	if err := readPayload(fr.r, payload[n:]); err != nil {
		return nil, err
	}
	return payload, nil
}
