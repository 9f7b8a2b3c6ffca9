package transport

import (
	"encoding/binary"
	"errors"
	"fmt"

	"chiaroscuro/internal/wire"
)

// Envelope layer: every frame on a mesh connection carries one message,
// tagged with a one-byte type. Handshake messages (hello/welcome/
// reject) appear once per connection at dial time; tick, data and bye
// flow for the lifetime of the mesh. Field encoding reuses the wire
// package's length-prefixed field primitives, so the fuzzed hardening
// of that layer covers the envelope too.

const (
	// helloMagic identifies a Chiaroscuro mesh connection; a dialer
	// that opens with anything else is rejected before any state is
	// allocated for it.
	helloMagic uint32 = 0xC1A805C0
	// meshVersion is the envelope protocol version. Version 2 added
	// per-link frame sequencing and the resume handshake. Version 3
	// carried packed openings. Version 4 packs at encryption: every
	// run's gossip vectors, decrypt requests and responses hold
	// ⌈sideLen/slots⌉ balanced-digit groups per side, where version 3
	// sent one ciphertext per coordinate or biased slot groups.
	meshVersion uint32 = 4
)

// Message types.
const (
	mtHello    byte = 0x01 // dialer's join handshake
	mtWelcome  byte = 0x02 // acceptor's join acknowledgment
	mtReject   byte = 0x03 // acceptor's refusal (reason string)
	mtTick     byte = 0x04 // epoch barrier: sender finished stepping this epoch
	mtData     byte = 0x05 // protocol payload tagged with its send epoch
	mtBye      byte = 0x06 // orderly leave after termination
	mtKey      byte = 0x07 // key-ceremony artifact (round-tagged, pre-epoch)
	mtResume   byte = 0x08 // dialer's reconnect handshake after a link drop
	mtResumeOK byte = 0x09 // acceptor's reconnect acknowledgment
)

// Key-ceremony rounds inside an mtKey frame, mirroring the dkg
// package's three phases.
const (
	keyRoundDeal          = 1
	keyRoundResponse      = 2
	keyRoundJustification = 3
)

// hello is the join handshake: who is dialing, how big the dialer
// thinks the run is, and a fingerprint of its full run configuration.
// Population and fingerprint mismatches are rejected at accept time —
// a process built from different parameters must not join the mesh.
type hello struct {
	ID          int
	Population  int
	Fingerprint uint64
}

func marshalHello(h hello) []byte {
	buf := []byte{mtHello}
	buf = wire.AppendUint32(buf, helloMagic)
	buf = wire.AppendUint32(buf, meshVersion)
	buf = wire.AppendUint32(buf, uint32(h.ID))
	buf = wire.AppendUint32(buf, uint32(h.Population))
	var fp [8]byte
	binary.BigEndian.PutUint64(fp[:], h.Fingerprint)
	return wire.AppendBytes(buf, fp[:])
}

func parseHello(body []byte) (hello, error) {
	fr := wire.NewFieldReader(body)
	magic, err := fr.Uint32()
	if err != nil {
		return hello{}, err
	}
	if magic != helloMagic {
		return hello{}, fmt.Errorf("transport: bad hello magic 0x%08x", magic)
	}
	version, err := fr.Uint32()
	if err != nil {
		return hello{}, err
	}
	if version != meshVersion {
		return hello{}, fmt.Errorf("transport: peer speaks mesh version %d, want %d", version, meshVersion)
	}
	id, err := fr.Uint32()
	if err != nil {
		return hello{}, err
	}
	pop, err := fr.Uint32()
	if err != nil {
		return hello{}, err
	}
	fp, err := fr.Bytes()
	if err != nil {
		return hello{}, err
	}
	if len(fp) != 8 {
		return hello{}, fmt.Errorf("transport: fingerprint field %d bytes, want 8", len(fp))
	}
	if err := fr.Done(); err != nil {
		return hello{}, err
	}
	return hello{
		ID:          int(id),
		Population:  int(pop),
		Fingerprint: binary.BigEndian.Uint64(fp),
	}, nil
}

func marshalWelcome(id int) []byte {
	return wire.AppendUint32([]byte{mtWelcome}, uint32(id))
}

func parseWelcome(body []byte) (int, error) {
	fr := wire.NewFieldReader(body)
	id, err := fr.Uint32()
	if err != nil {
		return 0, err
	}
	if err := fr.Done(); err != nil {
		return 0, err
	}
	return int(id), nil
}

func marshalReject(reason string) []byte {
	return wire.AppendBytes([]byte{mtReject}, []byte(reason))
}

func parseReject(body []byte) (string, error) {
	fr := wire.NewFieldReader(body)
	reason, err := fr.Bytes()
	if err != nil {
		return "", err
	}
	if err := fr.Done(); err != nil {
		return "", err
	}
	return string(reason), nil
}

func marshalTick(epoch int, done bool) []byte {
	buf := wire.AppendUint32([]byte{mtTick}, uint32(epoch))
	d := byte(0)
	if done {
		d = 1
	}
	return append(buf, d)
}

func parseTick(body []byte) (epoch int, done bool, err error) {
	if len(body) < 1 {
		return 0, false, errors.New("transport: truncated tick")
	}
	fr := wire.NewFieldReader(body[:len(body)-1])
	e, err := fr.Uint32()
	if err != nil {
		return 0, false, err
	}
	if err := fr.Done(); err != nil {
		return 0, false, err
	}
	switch body[len(body)-1] {
	case 0:
		return int(e), false, nil
	case 1:
		return int(e), true, nil
	default:
		return 0, false, fmt.Errorf("transport: bad tick done flag 0x%02x", body[len(body)-1])
	}
}

// beginData appends the head of a data frame for epoch to buf: the
// payload is appended next, in place, and wire.EndField(buf, mark)
// closes the frame.
func beginData(buf []byte, epoch int) (_ []byte, mark int) {
	buf = wire.AppendUint32(append(buf, mtData), uint32(epoch))
	return wire.BeginField(buf)
}

func parseData(body []byte) (epoch int, payload []byte, err error) {
	fr := wire.NewFieldReader(body)
	e, err := fr.Uint32()
	if err != nil {
		return 0, nil, err
	}
	payload, err = fr.Bytes()
	if err != nil {
		return 0, nil, err
	}
	if err := fr.Done(); err != nil {
		return 0, nil, err
	}
	return int(e), payload, nil
}

func marshalBye() []byte { return []byte{mtBye} }

// marshalKey wraps one dkg wire artifact (deal, response or
// justification — themselves fuzz-hardened encodings) in a
// round-tagged ceremony frame.
func marshalKey(round int, payload []byte) []byte {
	buf := wire.AppendUint32([]byte{mtKey}, uint32(round))
	return wire.AppendBytes(buf, payload)
}

// resume is the reconnect handshake: after a link drop, the dialing
// side re-identifies itself (same magic/version/fingerprint checks as
// hello) and announces the highest frame sequence number it has seen
// from the peer, so the peer can retransmit exactly the frames that
// were lost in flight. LastSeq is 0 when nothing has been received.
type resume struct {
	ID          int
	Population  int
	Fingerprint uint64
	LastSeq     uint64
}

func marshalResume(r resume) []byte {
	buf := []byte{mtResume}
	buf = wire.AppendUint32(buf, helloMagic)
	buf = wire.AppendUint32(buf, meshVersion)
	buf = wire.AppendUint32(buf, uint32(r.ID))
	buf = wire.AppendUint32(buf, uint32(r.Population))
	var u [8]byte
	binary.BigEndian.PutUint64(u[:], r.Fingerprint)
	buf = wire.AppendBytes(buf, u[:])
	binary.BigEndian.PutUint64(u[:], r.LastSeq)
	return wire.AppendBytes(buf, u[:])
}

func parseResume(body []byte) (resume, error) {
	fr := wire.NewFieldReader(body)
	magic, err := fr.Uint32()
	if err != nil {
		return resume{}, err
	}
	if magic != helloMagic {
		return resume{}, fmt.Errorf("transport: bad resume magic 0x%08x", magic)
	}
	version, err := fr.Uint32()
	if err != nil {
		return resume{}, err
	}
	if version != meshVersion {
		return resume{}, fmt.Errorf("transport: peer speaks mesh version %d, want %d", version, meshVersion)
	}
	id, err := fr.Uint32()
	if err != nil {
		return resume{}, err
	}
	pop, err := fr.Uint32()
	if err != nil {
		return resume{}, err
	}
	fp, err := fr.Bytes()
	if err != nil {
		return resume{}, err
	}
	if len(fp) != 8 {
		return resume{}, fmt.Errorf("transport: fingerprint field %d bytes, want 8", len(fp))
	}
	seq, err := fr.Bytes()
	if err != nil {
		return resume{}, err
	}
	if len(seq) != 8 {
		return resume{}, fmt.Errorf("transport: resume seq field %d bytes, want 8", len(seq))
	}
	if err := fr.Done(); err != nil {
		return resume{}, err
	}
	return resume{
		ID:          int(id),
		Population:  int(pop),
		Fingerprint: binary.BigEndian.Uint64(fp),
		LastSeq:     binary.BigEndian.Uint64(seq),
	}, nil
}

// marshalResumeOK acknowledges a resume: the acceptor identifies
// itself and announces its own lastSeqSeen so both sides retransmit.
func marshalResumeOK(id int, lastSeq uint64) []byte {
	buf := wire.AppendUint32([]byte{mtResumeOK}, uint32(id))
	var u [8]byte
	binary.BigEndian.PutUint64(u[:], lastSeq)
	return wire.AppendBytes(buf, u[:])
}

func parseResumeOK(body []byte) (id int, lastSeq uint64, err error) {
	fr := wire.NewFieldReader(body)
	i, err := fr.Uint32()
	if err != nil {
		return 0, 0, err
	}
	seq, err := fr.Bytes()
	if err != nil {
		return 0, 0, err
	}
	if len(seq) != 8 {
		return 0, 0, fmt.Errorf("transport: resume-ok seq field %d bytes, want 8", len(seq))
	}
	if err := fr.Done(); err != nil {
		return 0, 0, err
	}
	return int(i), binary.BigEndian.Uint64(seq), nil
}

func parseKey(body []byte) (round int, payload []byte, err error) {
	fr := wire.NewFieldReader(body)
	r, err := fr.Uint32()
	if err != nil {
		return 0, nil, err
	}
	if r < keyRoundDeal || r > keyRoundJustification {
		return 0, nil, fmt.Errorf("transport: unknown key-ceremony round %d", r)
	}
	payload, err = fr.Bytes()
	if err != nil {
		return 0, nil, err
	}
	if err := fr.Done(); err != nil {
		return 0, nil, err
	}
	return int(r), payload, nil
}
