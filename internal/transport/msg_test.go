package transport

import (
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"time"

	"chiaroscuro/internal/wire"
)

// TestOlderMeshVersionRefusedAtDial: a join from a mesh-version-5
// dialer, which still spoke a join handshake of its own, arrives as a
// version-5 resume and is answered with a reject naming both versions —
// the dialer's join fails at once instead of its frames failing mid-run.
func TestOlderMeshVersionRefusedAtDial(t *testing.T) {
	old := marshalResume(resume{ID: 1, Population: 2, Fingerprint: 7})
	// Each field is [4-byte length][payload] after the type byte: the
	// version value occupies bytes 13-16.
	binary.BigEndian.PutUint32(old[13:], 5)
	const want = "transport: peer speaks mesh version 5, want 6"
	if _, err := parseResume(old[1:]); err == nil || err.Error() != want {
		t.Fatalf("parse of a version-5 resume: %v, want %q", err, want)
	}
	n := &node{cfg: Config{ID: 0, Population: 2, EpochTimeout: time.Second}}
	dialer, acceptor := net.Pipe()
	defer dialer.Close()
	done := make(chan struct{})
	go func() {
		n.handleInbound(acceptor)
		close(done)
	}()
	if err := wire.WriteFrame(dialer, old); err != nil {
		t.Fatal(err)
	}
	frame, err := wire.ReadFrame(dialer)
	if err != nil {
		t.Fatalf("no answer to a version-5 resume: %v", err)
	}
	<-done
	if len(frame) == 0 || frame[0] != mtReject {
		t.Fatalf("a version-5 resume was answered with frame %x, want a reject", frame)
	}
	if reason, err := parseReject(frame[1:]); err != nil || !strings.Contains(reason, want) {
		t.Fatalf("reject reason %q (%v), want %q", reason, err, want)
	}
}

func TestResumeRoundTrip(t *testing.T) {
	want := resume{ID: 3, Population: 7, Fingerprint: 0xFEEDFACE12345678, LastSeq: 42}
	frame := marshalResume(want)
	if frame[0] != mtResume {
		t.Fatalf("frame type 0x%02x, want mtResume", frame[0])
	}
	got, err := parseResume(frame[1:])
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

func TestResumeOKRoundTrip(t *testing.T) {
	frame := marshalResumeOK(4, 977)
	if frame[0] != mtResumeOK {
		t.Fatalf("frame type 0x%02x, want mtResumeOK", frame[0])
	}
	id, lastSeq, err := parseResumeOK(frame[1:])
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if id != 4 || lastSeq != 977 {
		t.Fatalf("got (%d, %d), want (4, 977)", id, lastSeq)
	}
}

func TestParseResumeRejectsGarbage(t *testing.T) {
	valid := marshalResume(resume{ID: 1, Population: 3, Fingerprint: 9, LastSeq: 2})[1:]
	for i := 0; i < len(valid); i++ {
		if _, err := parseResume(valid[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	// Each field is [4-byte length][payload]: the magic value occupies
	// bytes 4-7, the version value bytes 12-15.
	bad := append([]byte(nil), valid...)
	bad[4] ^= 0xFF
	if _, err := parseResume(bad); err == nil {
		t.Error("bad magic accepted")
	}
	ver := append([]byte(nil), valid...)
	ver[15] = 99
	if _, err := parseResume(ver); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := parseResume(append(append([]byte(nil), valid...), 0x01)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// FuzzParseResume hardens the link handshake decoders the same way the
// tick/data decoders already are: arbitrary bytes from a
// half-open or malicious connection must never panic, and anything
// parseResume accepts must re-marshal byte-identically.
func FuzzParseResume(f *testing.F) {
	f.Add(marshalResume(resume{ID: 2, Population: 5, Fingerprint: 0xABCD, LastSeq: 17})[1:])
	f.Add([]byte{})
	f.Add([]byte{0xC1, 0xA8, 0x05, 0xC0})
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := parseResume(b)
		if err != nil {
			// Also drive the resume-ok decoder over the same corpus.
			parseResumeOK(b)
			return
		}
		again := marshalResume(r)[1:]
		if string(again) != string(b) {
			t.Fatalf("accepted resume does not re-marshal identically")
		}
	})
}
