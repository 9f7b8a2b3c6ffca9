package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/big"
	"testing"
)

// FuzzFrame feeds adversarial byte streams to the framing layer:
// oversized length prefixes, truncations, garbage headers, multiple
// concatenated frames. Neither read path (ReadFrame, and FrameReader's
// buffer, which a mesh link reads through) may panic or allocate past
// MaxFrameBytes, and every frame one accepts must round-trip through
// WriteFrame to the identical stream position.
func FuzzFrame(f *testing.F) {
	// Seeds: a clean two-frame stream, an empty frame, truncations, an
	// oversized length prefix and plain garbage.
	var clean bytes.Buffer
	if err := WriteFrame(&clean, []byte("diptych")); err != nil {
		f.Fatal(err)
	}
	if err := WriteFrame(&clean, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(clean.Bytes())
	f.Add(clean.Bytes()[:3])
	f.Add(clean.Bytes()[:5])
	var over [8]byte
	binary.BigEndian.PutUint32(over[:4], MaxFrameBytes+1)
	f.Add(over[:])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(bytes.Repeat([]byte{0x41}, 64))
	// What one link write carries: [data, tick] and [data, data, tick],
	// the payloads longer than FrameReader's buffer and the tick inside
	// it; then three ticks that share one buffer fill, and a batch cut
	// inside its last header.
	data := bytes.Repeat([]byte{0x05}, 3*frameReadBuf)
	tick := bytes.Repeat([]byte{0x04}, 18)
	batch := func(payloads ...[]byte) []byte {
		var b []byte
		for _, p := range payloads {
			var err error
			if b, err = AppendFrame(b, p); err != nil {
				f.Fatal(err)
			}
		}
		return b
	}
	f.Add(batch(data, tick))
	f.Add(batch(data, data[:frameReadBuf], tick))
	f.Add(batch(tick, tick, tick))
	f.Add(batch(data, tick, tick)[:len(data)+4+22+2])

	f.Fuzz(func(t *testing.T, data []byte) {
		var accepted [][]byte
		for name, open := range readPaths {
			next := open(bytes.NewReader(data))
			var reassembled bytes.Buffer
			frames := 0
			for {
				payload, err := next()
				if err != nil {
					if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrFrameTooBig) {
						break
					}
					t.Fatalf("unexpected %s error class: %v", name, err)
				}
				frames++
				if err := WriteFrame(&reassembled, payload); err != nil {
					t.Fatalf("re-encode of accepted frame failed: %v", err)
				}
			}
			// Every accepted frame re-encodes to the exact bytes it was
			// decoded from: the accepted prefix of the stream is canonical.
			got := reassembled.Bytes()
			if !bytes.Equal(got, data[:len(got)]) {
				t.Fatalf("%s: re-encoded stream diverges after %d frames", name, frames)
			}
			accepted = append(accepted, got)
		}
		if !bytes.Equal(accepted[0], accepted[1]) {
			t.Fatalf("the read paths accept different prefixes: %d and %d bytes", len(accepted[0]), len(accepted[1]))
		}
	})
}

// FuzzUnmarshalResidueVector hardens the accounted-backend artifact the
// same way the ciphertext targets harden the real one: the decoder the
// protocol runs (UnmarshalResidueVectorInto) accepts exactly what the
// allocating oracle accepts, with the same values, and what it accepts
// re-encodes to the input.
func FuzzUnmarshalResidueVector(f *testing.F) {
	m := new(big.Int).Lsh(big.NewInt(1), 320)
	m.Sub(m, big.NewInt(1))
	buf, err := MarshalResidueVector(m, []*big.Int{big.NewInt(7), big.NewInt(0), big.NewInt(1 << 30)})
	if err != nil {
		f.Fatal(err)
	}
	seedMutations(f, buf)
	f.Fuzz(func(t *testing.T, data []byte) {
		want, oerr := oracleUnmarshalResidueVector(m, data)
		got := freshInts(impliedCount(data, residueWidth(m)))
		err := UnmarshalResidueVectorInto(m, got, data)
		requireParity(t, got, err, want, oerr)
		if err != nil {
			return
		}
		out, err := MarshalResidueVector(m, got)
		if err != nil {
			t.Fatalf("re-marshal of accepted residue vector failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("residue vector round-trip not canonical")
		}
	})
}
