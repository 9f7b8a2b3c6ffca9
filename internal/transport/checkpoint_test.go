package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/p2p"
	"chiaroscuro/internal/wire"
)

// ringFrame builds a sequenced wire frame whose embedded seq prefix
// matches the given sequence number, as the supervisor's send path does.
func ringFrame(seq uint64, inner []byte) []byte {
	buf := make([]byte, 8, 8+len(inner))
	binary.BigEndian.PutUint64(buf, seq)
	return append(buf, inner...)
}

// sampleCheckpoint builds a fully populated checkpoint: multiple links
// with retransmit rings, parked barrier state, departed peers, and a
// leftover ceremony backlog — every branch of the codec.
func sampleCheckpoint() *checkpoint {
	return &checkpoint{
		fingerprint:    0xDEADBEEFCAFEF00D,
		id:             2,
		population:     5,
		nextEpoch:      7,
		barrierPending: true,
		samplerState:   0x1234567890ABCDEF,
		coreSnap:       []byte("core-participant-snapshot-bytes"),
		links: map[int]linkState{
			0: {
				outSeq: 12, inSeq: 11, pruned: 9,
				ring: []sentFrame{
					{seq: 10, epoch: 5, frame: ringFrame(10, marshalTick(5, false))},
					{seq: 12, epoch: 6, frame: ringFrame(12, dataFrame(6, []byte("payload")))},
				},
			},
			1: {outSeq: 3, inSeq: 8, pruned: 0},
			4: {outSeq: 0, inSeq: 0, pruned: 0},
		},
		pendingData: map[int]map[int][][]byte{
			6: {0: {[]byte("a"), []byte("b")}, 4: {[]byte("c")}},
			7: {1: {[]byte("d")}},
		},
		ticks: map[int]map[int]bool{
			7: {0: false, 1: true, 4: false},
		},
		left:    map[int]bool{3: true},
		backlog: []inMsg{{from: 1, kind: mtData, epoch: 7, payload: []byte("late")}, {from: 4, kind: mtTick, epoch: 7, done: true}},
	}
}

// encodeCheckpoint writes a decoded checkpoint back out through the
// pieces encodeCheckpoint on a live node is made of.
func encodeCheckpoint(ck *checkpoint) []byte {
	var w ckptWriter
	w.head(ck.fingerprint, ck.id, ck.population, ck.nextEpoch, ck.barrierPending, ck.samplerState)
	w.buf = wire.AppendBytes(w.buf, ck.coreSnap)
	w.buf = wire.AppendUint32(w.buf, uint32(len(ck.links)))
	for _, peer := range sortedKeys(nil, ck.links) {
		w.link(peer, ck.links[peer])
	}
	w.barrier(ck.pendingData, ck.ticks, ck.left, ck.backlog)
	return w.buf
}

// TestCheckpointBytesUnchanged pins the file format against the encoder
// this one replaced: testdata/checkpoint_v1_sample.hex is what
// sampleCheckpoint encoded to before ckptWriter existed, so a file
// written by an older daemon decodes here and the other way round.
func TestCheckpointBytesUnchanged(t *testing.T) {
	text, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v1_sample.hex"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeCheckpoint(sampleCheckpoint()); !bytes.Equal(got, want) {
		t.Fatalf("sampleCheckpoint encodes to %d bytes that differ from the %d recorded before the rewrite", len(got), len(want))
	}
	if _, err := decodeCheckpoint(want); err != nil {
		t.Fatalf("recorded checkpoint no longer decodes: %v", err)
	}
}

// TestCheckpointEncodeAllocatesNothing builds a node the way a run
// leaves one at a checkpoint — a participant, a sampler, links with
// populated rings, parked payloads and ticks — and holds its encoder to
// the two halves of its contract: the image decodes to that state, and
// from the second checkpoint on, encoding allocates nothing. The
// participant is between iterations; one that holds a push-sum state
// allocates nothing either (core.TestAppendSnapshotAllocations).
func TestCheckpointEncodeAllocatesNothing(t *testing.T) {
	const pop, id = 4, 1
	data, err := SyntheticSeries("cer", pop, 3)
	if err != nil {
		t.Fatal(err)
	}
	params := core.Params{K: 2, Epsilon: 1.0, Iterations: 2, Seed: 3, Backend: core.BackendPlainAccounted}
	cn, err := core.NewNode(data, params, id)
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	n := &node{
		cfg:     Config{ID: id, Population: pop, Grace: time.Second}, // grace: a down link keeps frames in its ring
		fp:      cn.Fingerprint(),
		core:    cn,
		sampler: p2p.NewSampler(cn.SamplingSeed(), p2p.NodeID(id), pop),
		links:   make([]*link, pop),
		procSeq: []uint64{7, 0, 0, 9},
		pendingData: map[int]map[int][][]byte{
			8: {0: {[]byte("a"), []byte("b")}, 3: {[]byte("c")}},
			9: {2: {[]byte("d")}},
		},
		ticks:   map[int]map[int]bool{9: {0: false, 3: true}},
		left:    map[int]bool{2: true},
		backlog: []inMsg{{from: 3, kind: mtData, epoch: 9, payload: []byte("late")}},
	}
	n.sampler.RandomPeer()
	for peer := range n.links {
		if peer == id {
			continue
		}
		l := newLink(n, peer)
		n.links[peer] = l
		for epoch := 5; epoch < 9; epoch++ {
			if err := l.send(epoch, dataFrame(epoch, bytes.Repeat([]byte{byte(peer)}, 100*(peer+1)))); err != nil {
				t.Fatal(err)
			}
			if err := l.send(epoch, marshalTick(epoch, false)); err != nil {
				t.Fatal(err)
			}
		}
		l.prune(6)
	}

	image, err := n.encodeCheckpoint(9, true)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := decodeCheckpoint(image)
	if err != nil {
		t.Fatalf("a live node's checkpoint does not decode: %v", err)
	}
	snap, err := cn.AppendSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ck.fingerprint != n.fp || ck.id != id || ck.population != pop || ck.nextEpoch != 9 || !ck.barrierPending ||
		ck.samplerState != n.sampler.State() || !bytes.Equal(ck.coreSnap, snap) {
		t.Fatalf("head or participant snapshot differ from the node's: %+v", ck)
	}
	for peer, l := range n.links {
		if l == nil {
			continue
		}
		want := linkState{outSeq: 8, inSeq: n.procSeq[peer], pruned: 2, ring: l.ring}
		if got := ck.links[peer]; !reflect.DeepEqual(got, want) {
			t.Fatalf("link %d: decoded %+v, the link holds %+v", peer, got, want)
		}
	}
	if !reflect.DeepEqual(ck.pendingData, n.pendingData) || !reflect.DeepEqual(ck.ticks, n.ticks) || !reflect.DeepEqual(ck.left, n.left) {
		t.Fatal("barrier buffers differ from the node's")
	}
	if len(ck.backlog) != 1 || ck.backlog[0].from != 3 || !bytes.Equal(ck.backlog[0].payload, []byte("late")) {
		t.Fatalf("backlog differs from the node's: %+v", ck.backlog)
	}

	first := bytes.Clone(image)
	allocs := testing.AllocsPerRun(50, func() {
		if image, err = n.encodeCheckpoint(9, true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a later checkpoint of the same node allocates %v times, want 0", allocs)
	}
	if !bytes.Equal(image, first) {
		t.Error("the reused buffer holds a different image of the same state")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	want := sampleCheckpoint()
	got, err := decodeCheckpoint(encodeCheckpoint(want))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.fingerprint != want.fingerprint || got.id != want.id || got.population != want.population {
		t.Fatalf("identity fields differ: %+v", got)
	}
	if got.nextEpoch != want.nextEpoch || got.barrierPending != want.barrierPending {
		t.Fatalf("epoch fields differ: nextEpoch=%d pending=%v", got.nextEpoch, got.barrierPending)
	}
	if got.samplerState != want.samplerState {
		t.Fatalf("sampler state %x, want %x", got.samplerState, want.samplerState)
	}
	if !bytes.Equal(got.coreSnap, want.coreSnap) {
		t.Fatal("core snapshot bytes differ")
	}
	if !reflect.DeepEqual(got.links, want.links) {
		t.Fatalf("links differ:\n got %+v\nwant %+v", got.links, want.links)
	}
	if !reflect.DeepEqual(got.pendingData, want.pendingData) {
		t.Fatalf("pendingData differ:\n got %+v\nwant %+v", got.pendingData, want.pendingData)
	}
	if !reflect.DeepEqual(got.ticks, want.ticks) {
		t.Fatalf("ticks differ:\n got %+v\nwant %+v", got.ticks, want.ticks)
	}
	if !reflect.DeepEqual(got.left, want.left) {
		t.Fatalf("left differ: %+v", got.left)
	}
	if len(got.backlog) != len(want.backlog) {
		t.Fatalf("backlog length %d, want %d", len(got.backlog), len(want.backlog))
	}
	for i := range want.backlog {
		g, w := got.backlog[i], want.backlog[i]
		if g.from != w.from || g.kind != w.kind || g.epoch != w.epoch || g.done != w.done || !bytes.Equal(g.payload, w.payload) {
			t.Fatalf("backlog[%d] = %+v, want %+v", i, g, w)
		}
	}
}

// TestCheckpointRejectsCorruption mutates a valid encoding in targeted
// ways; every mutation must produce a clean error.
func TestCheckpointRejectsCorruption(t *testing.T) {
	valid := encodeCheckpoint(sampleCheckpoint())
	mutate := func(name string, f func([]byte) []byte) {
		b := append([]byte(nil), valid...)
		if _, err := decodeCheckpoint(f(b)); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
	mutate("bad magic", func(b []byte) []byte { b[4] ^= 0xFF; return b })
	mutate("bad version", func(b []byte) []byte { b[11] = 99; return b })
	mutate("truncated", func(b []byte) []byte { return b[:len(b)/2] })
	mutate("trailing garbage", func(b []byte) []byte { return append(b, 0xAA) })
	if _, err := decodeCheckpoint(nil); err == nil {
		t.Error("empty checkpoint accepted")
	}
	// Every prefix truncation must fail, not panic.
	for i := 0; i < len(valid); i++ {
		if _, err := decodeCheckpoint(valid[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	// A ring frame whose embedded seq disagrees with its entry.
	ck := sampleCheckpoint()
	ls := ck.links[0]
	ls.ring[0].frame = ringFrame(999, marshalTick(5, false))
	ck.links[0] = ls
	if _, err := decodeCheckpoint(encodeCheckpoint(ck)); err == nil {
		t.Error("ring frame seq mismatch accepted")
	}
	// Ring seqs not ascending past the pruned watermark.
	ck = sampleCheckpoint()
	ls = ck.links[0]
	ls.ring[0].seq = ls.pruned
	ls.ring[0].frame = ringFrame(ls.pruned, marshalTick(5, false))
	ck.links[0] = ls
	if _, err := decodeCheckpoint(encodeCheckpoint(ck)); err == nil {
		t.Error("ring seq at pruned watermark accepted")
	}
}

// TestLoadCheckpointRejectsMismatch: a checkpoint from a different run
// configuration, node id, or population must not restore.
func TestLoadCheckpointRejectsMismatch(t *testing.T) {
	dir := t.TempDir()
	ck := sampleCheckpoint()
	cfg := Config{ID: ck.id, Population: ck.population, CheckpointDir: dir}
	path := checkpointPath(cfg)
	if err := writeFileAtomic(path, encodeCheckpoint(ck)); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCheckpoint(path, cfg, ck.fingerprint); err != nil {
		t.Fatalf("matching checkpoint rejected: %v", err)
	}
	if _, err := loadCheckpoint(path, cfg, ck.fingerprint+1); err == nil {
		t.Error("fingerprint mismatch accepted")
	}
	wrongID := cfg
	wrongID.ID = ck.id + 1
	if _, err := loadCheckpoint(path, wrongID, ck.fingerprint); err == nil {
		t.Error("id mismatch accepted")
	}
	wrongPop := cfg
	wrongPop.Population = ck.population + 1
	if _, err := loadCheckpoint(path, wrongPop, ck.fingerprint); err == nil {
		t.Error("population mismatch accepted")
	}
}

// TestWriteFileAtomic: the write leaves no temp residue, replaces prior
// content wholesale, and a pre-existing stale temp file does not break
// it — the invariants WriteHistory and the checkpoint writer rely on.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	// Simulate an earlier torn write: garbage at the target and a stale
	// temp file left by a crashed writer.
	if err := os.WriteFile(path, []byte("torn-partial-garbag"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".tmp", []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := []byte("complete-new-content")
	if err := writeFileAtomic(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read %q, want %q", got, want)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want just the target", len(entries))
	}
}

// FuzzDecodeCheckpoint hardens the decoder: arbitrary bytes must error
// cleanly, and anything accepted must re-encode to a decodable form.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add(encodeCheckpoint(sampleCheckpoint()))
	f.Add([]byte{})
	f.Add([]byte{0xC1, 0xA8, 0xC4, 0xB7})
	f.Fuzz(func(t *testing.T, b []byte) {
		ck, err := decodeCheckpoint(b)
		if err != nil {
			return
		}
		if _, err := decodeCheckpoint(encodeCheckpoint(ck)); err != nil {
			t.Fatalf("accepted checkpoint does not round-trip: %v", err)
		}
	})
}
