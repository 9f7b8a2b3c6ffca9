package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/big"
	"testing"
)

// oneByteReader delivers at most one byte per Read call — the worst
// legal fragmentation a net.Conn can produce. The original decoder
// assumed whole-message byte slices; ReadFrame must reassemble.
type oneByteReader struct {
	r io.Reader
}

func (o oneByteReader) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

// readPaths are the two ways to take frames off a stream: frame by frame
// without reading ahead, and through FrameReader's buffer. Every framing
// test runs on both; they must agree on every frame and every error.
var readPaths = map[string]func(io.Reader) func() ([]byte, error){
	"ReadFrame": func(r io.Reader) func() ([]byte, error) {
		return func() ([]byte, error) { return ReadFrame(r) }
	},
	"FrameReader": func(r io.Reader) func() ([]byte, error) {
		return NewFrameReader(r).ReadFrame
	},
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		{0x42},
		bytes.Repeat([]byte{0xAB}, 3),
		bytes.Repeat([]byte{0x00}, 1<<16),
		// Around FrameReader's buffer: a frame that ends exactly at it,
		// one byte short of it and one past it, then a short one behind.
		bytes.Repeat([]byte{0x11}, frameReadBuf-4),
		bytes.Repeat([]byte{0x22}, frameReadBuf-5),
		bytes.Repeat([]byte{0x33}, frameReadBuf-3),
		{0x44},
	}
	for name, open := range readPaths {
		var buf bytes.Buffer
		for _, p := range payloads {
			if err := WriteFrame(&buf, p); err != nil {
				t.Fatalf("WriteFrame(%d bytes): %v", len(p), err)
			}
		}
		next := open(&buf)
		for i, p := range payloads {
			got, err := next()
			if err != nil {
				t.Fatalf("%s #%d: %v", name, i, err)
			}
			if !bytes.Equal(got, p) {
				t.Fatalf("%s frame %d: got %d bytes, want %d", name, i, len(got), len(p))
			}
		}
		if _, err := next(); !errors.Is(err, io.EOF) {
			t.Fatalf("%s on a drained stream: want io.EOF, got %v", name, err)
		}
	}
}

// countingReader counts the Read calls that reach the stream.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestFrameReaderReadsOncePerArrival is what the buffer is for: frames
// that fit it and arrive together cost one Read between them, where
// ReadFrame spends two each; a payload beyond the buffer is read into
// its own allocation in one more.
func TestFrameReaderReadsOncePerArrival(t *testing.T) {
	tick := bytes.Repeat([]byte{0x04}, 18) // a sequenced tick: 22 bytes framed
	var stream []byte
	for i := 0; i < 2; i++ {
		stream, _ = AppendFrame(stream, tick)
	}
	cr := &countingReader{r: bytes.NewReader(stream)}
	fr := NewFrameReader(cr)
	for i := 0; i < 2; i++ {
		if got, err := fr.ReadFrame(); err != nil || !bytes.Equal(got, tick) {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	if cr.reads != 1 {
		t.Fatalf("two ticks that arrived together took %d reads, want 1", cr.reads)
	}

	data := bytes.Repeat([]byte{0x05}, 1200)
	stream, _ = AppendFrame(nil, data)
	stream, _ = AppendFrame(stream, tick)
	cr = &countingReader{r: bytes.NewReader(stream)}
	fr = NewFrameReader(cr)
	for _, want := range [][]byte{data, tick} {
		if got, err := fr.ReadFrame(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame of %d bytes: %v", len(want), err)
		}
	}
	if cr.reads != 3 {
		t.Fatalf("[data, tick] took %d reads, want 3 (head, rest of the payload, tick)", cr.reads)
	}
}

// TestFrameOneByteAtATime is the partial-read regression test: a stream
// of frames delivered a single byte per Read must decode identically to
// a whole-buffer delivery.
func TestFrameOneByteAtATime(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		{1, 2, 3},
		{},
		bytes.Repeat([]byte{0x5A}, 257),
	}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	stream := buf.Bytes()
	for name, open := range readPaths {
		next := open(oneByteReader{r: bytes.NewReader(stream)})
		for i, p := range payloads {
			got, err := next()
			if err != nil {
				t.Fatalf("one-byte %s #%d: %v", name, i, err)
			}
			if !bytes.Equal(got, p) {
				t.Fatalf("one-byte %s frame %d mismatch", name, i)
			}
		}
		if _, err := next(); !errors.Is(err, io.EOF) {
			t.Fatalf("drained one-byte stream, %s: want io.EOF, got %v", name, err)
		}
	}
}

func TestFrameTruncation(t *testing.T) {
	var full bytes.Buffer
	if err := WriteFrame(&full, []byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	// Every proper prefix that contains at least one byte must fail with
	// ErrUnexpectedEOF (truncated header or truncated payload) — also
	// behind a complete frame, where FrameReader holds the cut in its
	// buffer, and delivered a byte at a time.
	for name, open := range readPaths {
		for cut := 1; cut < len(raw); cut++ {
			if _, err := open(bytes.NewReader(raw[:cut]))(); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s, prefix of %d bytes: want ErrUnexpectedEOF, got %v", name, cut, err)
			}
			two := append(append([]byte(nil), raw...), raw[:cut]...)
			for _, r := range []io.Reader{bytes.NewReader(two), oneByteReader{r: bytes.NewReader(two)}} {
				next := open(r)
				if _, err := next(); err != nil {
					t.Fatalf("%s, whole frame before a cut at %d: %v", name, cut, err)
				}
				if _, err := next(); !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("%s, second frame cut at %d: want ErrUnexpectedEOF, got %v", name, cut, err)
				}
			}
		}
	}
}

func TestFrameOversized(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameBytes+1)
	for name, open := range readPaths {
		if _, err := open(bytes.NewReader(hdr[:]))(); !errors.Is(err, ErrFrameTooBig) {
			t.Fatalf("%s, oversized header: want ErrFrameTooBig, got %v", name, err)
		}
	}
	big := make([]byte, MaxFrameBytes+1)
	if err := WriteFrame(io.Discard, big); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized write: want ErrFrameTooBig, got %v", err)
	}
	if _, err := AppendFrame(nil, big); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized append: want ErrFrameTooBig, got %v", err)
	}
}

func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	payload := []byte("chiaroscuro")
	var w bytes.Buffer
	if err := WriteFrame(&w, payload); err != nil {
		t.Fatal(err)
	}
	appended, err := AppendFrame(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), appended) {
		t.Fatalf("AppendFrame bytes differ from WriteFrame")
	}
}

func TestResidueVectorRoundTrip(t *testing.T) {
	m := new(big.Int).Lsh(big.NewInt(1), 320)
	m.Sub(m, big.NewInt(1))
	vs := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(m, big.NewInt(1)),
		big.NewInt(424242),
	}
	buf, err := MarshalResidueVector(m, vs)
	if err != nil {
		t.Fatal(err)
	}
	got := freshInts(len(vs))
	if err := UnmarshalResidueVectorInto(m, got, buf); err != nil {
		t.Fatal(err)
	}
	for i := range vs {
		if got[i].Cmp(vs[i]) != 0 {
			t.Fatalf("residue %d: got %v, want %v", i, got[i], vs[i])
		}
	}
}

func TestResidueVectorRejectsOutOfRing(t *testing.T) {
	m := big.NewInt(97)
	if _, err := MarshalResidueVector(m, []*big.Int{big.NewInt(97)}); err == nil {
		t.Fatal("marshal accepted residue == modulus")
	}
	if _, err := MarshalResidueVector(m, []*big.Int{big.NewInt(-1)}); err == nil {
		t.Fatal("marshal accepted negative residue")
	}
	// A crafted body with an out-of-ring residue must fail decode.
	buf, err := MarshalResidueVector(m, []*big.Int{big.NewInt(3)})
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] = 98
	if err := UnmarshalResidueVectorInto(m, freshInts(1), buf); err == nil {
		t.Fatal("unmarshal accepted out-of-ring residue")
	}
}

func TestResidueVectorRejectsBadShape(t *testing.T) {
	m := big.NewInt(251)
	buf, err := MarshalResidueVector(m, []*big.Int{big.NewInt(1), big.NewInt(2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := UnmarshalResidueVectorInto(m, freshInts(2), buf[:len(buf)-1]); err == nil {
		t.Fatal("unmarshal accepted truncated body")
	}
	if err := UnmarshalResidueVectorInto(m, freshInts(1), buf); err == nil {
		t.Fatal("unmarshal accepted a count other than the destination's")
	}
	if err := UnmarshalResidueVectorInto(big.NewInt(1<<20), freshInts(2), buf); err == nil {
		t.Fatal("unmarshal accepted width mismatch")
	}
}
