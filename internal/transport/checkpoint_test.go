package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/datasets"
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

// sampleCheckpoint builds a fully populated checkpoint: a link per
// peer, with and without retransmit rings — every branch of the codec.
func sampleCheckpoint() *checkpoint {
	return &checkpoint{
		fingerprint:  0xDEADBEEFCAFEF00D,
		id:           2,
		population:   5,
		nextEpoch:    7,
		samplerState: 0x1234567890ABCDEF,
		coreSnap:     []byte("core-participant-snapshot-bytes"),
		links: map[int]linkState{
			0: {
				outSeq: 12, consumedSeq: 11, pruned: 9,
				ring: []sentFrame{
					{seq: 10, epoch: 5, frame: ringFrame(10, marshalTick(5, false))},
					{seq: 12, epoch: 6, frame: ringFrame(12, dataFrame(6, []byte("payload")))},
				},
			},
			1: {outSeq: 3, consumedSeq: 8, pruned: 0},
			3: {outSeq: 14, consumedSeq: 13, pruned: 13, ring: []sentFrame{{seq: 14, epoch: 6, frame: ringFrame(14, marshalTick(6, true))}}},
			4: {outSeq: 0, consumedSeq: 0, pruned: 0},
		},
	}
}

// encodeInto writes a decoded checkpoint back out into w through the
// pieces encodeCheckpoint on a live node is made of, and returns the
// image.
func encodeInto(w *ckptWriter, ck *checkpoint) []byte {
	w.head(ck.fingerprint, ck.id, ck.population, ck.nextEpoch, ck.samplerState)
	w.buf = wire.AppendBytes(w.buf, ck.coreSnap)
	w.buf = wire.AppendUint32(w.buf, uint32(len(ck.links)))
	for _, peer := range slices.Sorted(maps.Keys(ck.links)) {
		w.link(peer, ck.links[peer])
	}
	return w.image()
}

func encodeCheckpoint(ck *checkpoint) []byte { return encodeInto(new(ckptWriter), ck) }

// readHex reads a recorded byte string from testdata.
func readHex(t testing.TB, name string) []byte {
	t.Helper()
	text, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	b, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// generation returns the state sampleCheckpoint's node holds at
// generation g of a run's checkpoints: a later epoch, and a longer core
// snapshot, so every generation's image differs from the others in
// length as well as in bytes.
func generation(g int) *checkpoint {
	ck := sampleCheckpoint()
	ck.nextEpoch += g
	ck.coreSnap = bytes.Repeat([]byte("snap"), g)
	return ck
}

// storeGenerations writes generations 1..gens through one slot writer
// into path, returning the writer (still holding the file open) and the
// file as each generation left it.
func storeGenerations(t testing.TB, path string, gens int) (*ckptWriter, [][]byte) {
	t.Helper()
	w := new(ckptWriter)
	files := make([][]byte, gens+1)
	for g := 1; g <= gens; g++ {
		encodeInto(w, generation(g))
		if err := w.store(path); err != nil {
			t.Fatal(err)
		}
		if w.gen != uint64(g) {
			t.Fatalf("store %d left generation %d", g, w.gen)
		}
		var err error
		if files[g], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	return w, files
}

// TestCheckpointBytesUnchanged pins the image format:
// testdata/checkpoint_v2_sample.hex is what sampleCheckpoint encodes to,
// so an image written by another build of this version decodes here and
// the other way round. testdata/checkpoint_v1_sample.hex is the same
// sample as the first version wrote it, with its barrier buffers; it is
// refused by version, not misread. The image is what is pinned; the
// two-slot file around it is TestCheckpointTornSlot's and
// TestCheckpointFileRefusals'.
func TestCheckpointBytesUnchanged(t *testing.T) {
	want := readHex(t, "checkpoint_v2_sample.hex")
	if got := encodeCheckpoint(sampleCheckpoint()); !bytes.Equal(got, want) {
		t.Fatalf("sampleCheckpoint encodes to %d bytes that differ from the %d recorded", len(got), len(want))
	}
	if _, err := decodeCheckpoint(want); err != nil {
		t.Fatalf("recorded checkpoint no longer decodes: %v", err)
	}
	const refusal = "transport: invalid checkpoint: version 1, want 2"
	if _, err := decodeCheckpoint(readHex(t, "checkpoint_v1_sample.hex")); err == nil || err.Error() != refusal {
		t.Fatalf("version-1 checkpoint: %v, want %q", err, refusal)
	}
}

// TestCheckpointEncodeAllocatesNothing builds a node the way a run
// leaves one at a checkpoint — a participant, a sampler, links with
// populated rings and consumed watermarks — and holds its checkpoint
// writer to the two halves of its contract: the image decodes to that
// state, and from the third checkpoint on (the second is the first
// overwrite, AllocsPerRun's warm-up), encoding plus the slot write
// allocates nothing. The participant is between iterations; one that
// holds a push-sum state allocates nothing either
// (core.TestAppendSnapshotAllocations).
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
		// grace: a down link keeps frames in its ring
		cfg:      Config{ID: id, Population: pop, Grace: time.Second, CheckpointDir: t.TempDir()},
		fp:       cn.Fingerprint(),
		core:     cn,
		sampler:  p2p.NewSampler(cn.SamplingSeed(), p2p.NodeID(id), pop),
		links:    make([]*link, pop),
		consumed: []uint64{7, 0, 0, 9},
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

	image, err := n.encodeCheckpoint(9)
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
	if ck.fingerprint != n.fp || ck.id != id || ck.population != pop || ck.nextEpoch != 9 ||
		ck.samplerState != n.sampler.State() || !bytes.Equal(ck.coreSnap, snap) {
		t.Fatalf("head or participant snapshot differ from the node's: %+v", ck)
	}
	for peer, l := range n.links {
		if l == nil {
			continue
		}
		want := linkState{outSeq: 8, consumedSeq: n.consumed[peer], pruned: 2, ring: l.ring}
		if got := ck.links[peer]; !reflect.DeepEqual(got, want) {
			t.Fatalf("link %d: decoded %+v, the link holds %+v", peer, got, want)
		}
	}

	first := bytes.Clone(image)
	path := checkpointPath(n.cfg)
	defer n.ckpt.close()
	if err := n.ckpt.store(path); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if image, err = n.encodeCheckpoint(9); err != nil {
			t.Fatal(err)
		}
		if err := n.ckpt.store(path); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a later checkpoint of the same node allocates %v times, want 0", allocs)
	}
	if !bytes.Equal(image, first) {
		t.Error("the reused buffer holds a different image of the same state")
	}
	if n.ckpt.gen != 52 {
		t.Errorf("52 checkpoints left generation %d", n.ckpt.gen)
	}
	if got, err := loadCheckpoint(path, n.cfg, n.fp); err != nil || !reflect.DeepEqual(got, ck) {
		t.Errorf("the overwritten file loads %+v, %v; want the node's state", got, err)
	}
}

// TestCheckpointFileLaidOutOnce runs a mesh of the benchmark's
// mesh-plain shape (16 nodes, tumor series of 10 weeks, K = 2, 32
// iterations, a checkpoint every 4 epochs), whose first checkpoint image
// is taken before the retransmit rings fill. The first layout must be
// sized for the rings' whole retention window, so that no later image
// outgrows its slot: the file each node holds after its first
// checkpoint is the file it holds at the end, not one laid out again.
func TestCheckpointFileLaidOutOnce(t *testing.T) {
	const n, every, dim = 16, 4, 10
	ds, err := datasets.TumorGrowth(datasets.TumorOptions{N: n, Weeks: dim, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds.NormalizeTo01()
	level := func(v float64) []float64 {
		c := make([]float64, dim)
		for i := range c {
			c[i] = v
		}
		return c
	}
	params := core.Params{K: 2, Epsilon: 100, Iterations: 32, GossipRounds: 8, DecryptThreshold: 4, MaxValue: 1, Seed: 1,
		InitialCentroids: [][]float64{level(0.25), level(0.75)}, Backend: core.BackendPlainAccounted}
	addrDir, ckptDir := t.TempDir(), t.TempDir()
	first := make([]os.FileInfo, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cfg := Config{ID: id, Population: n, Listen: "127.0.0.1:0", AddrDir: addrDir, EpochTimeout: 60 * time.Second,
				CheckpointDir: ckptDir, CheckpointEvery: every}
			cfg.Logf = func(format string, args ...any) {
				// Only Run's own goroutine logs checkpoints.
				if strings.HasPrefix(format, "node %d checkpointed epoch") && first[id] == nil {
					first[id], errs[id] = os.Stat(checkpointPath(cfg))
				}
			}
			if _, err := Run(cfg, ds.Series, params); err != nil {
				errs[id] = err
			}
		}(id)
	}
	wg.Wait()
	for id := 0; id < n; id++ {
		if errs[id] != nil {
			t.Fatalf("node %d: %v", id, errs[id])
		}
		if first[id] == nil {
			t.Fatalf("node %d never checkpointed", id)
		}
		last, err := os.Stat(filepath.Join(ckptDir, fmt.Sprintf("%d.ckpt", id)))
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(first[id], last) {
			t.Errorf("node %d laid its checkpoint file out again after the first checkpoint (%d bytes, then %d)", id, first[id].Size(), last.Size())
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	want := sampleCheckpoint()
	got, err := decodeCheckpoint(encodeCheckpoint(want))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip differs:\n got %+v\nwant %+v", got, want)
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
	// A link per peer, no fewer: a missing one would restore as a link
	// that never sent or received, and fail later as a pruned resume or
	// a stale frame.
	ck = sampleCheckpoint()
	delete(ck.links, 4)
	const missing = "transport: invalid checkpoint: 3 links for population 5"
	if _, err := decodeCheckpoint(encodeCheckpoint(ck)); err == nil || err.Error() != missing {
		t.Errorf("missing link: %v, want %q", err, missing)
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
	var w ckptWriter
	defer w.close()
	encodeInto(&w, ck)
	if err := w.store(path); err != nil {
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

// TestCheckpointTornSlot models a crash during the newest slot's write
// cut at every byte: the first i bytes of generation 3's write have
// landed in slot 0 and the rest of the slot still holds generation 1.
// Resume must restore generation 3's state if and only if the slot
// holds the complete write, and generation 2's (slot 1) otherwise:
// never an error, never a mix.
func TestCheckpointTornSlot(t *testing.T) {
	ck := sampleCheckpoint()
	cfg := Config{ID: ck.id, Population: ck.population, CheckpointDir: t.TempDir()}
	path := checkpointPath(cfg)
	w, files := storeGenerations(t, path, 3)
	w.close()
	write := w.buf // generation 3's slot write, at slot 0
	var want [4]*checkpoint
	for g := 2; g <= 3; g++ {
		var err error
		if want[g], err = decodeCheckpoint(encodeCheckpoint(generation(g))); err != nil {
			t.Fatal(err)
		}
	}
	if len(files[1]) != len(files[3]) {
		t.Fatalf("generation 3 laid out a new file (%d bytes, was %d)", len(files[3]), len(files[1]))
	}
	for i := 0; i <= len(write); i++ {
		torn := bytes.Clone(files[3])
		slot := torn[ckptPage : ckptPage+len(write)]
		copy(slot, files[1][ckptPage:])
		copy(slot, write[:i])
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := loadCheckpoint(path, cfg, ck.fingerprint)
		if err != nil {
			t.Fatalf("write cut at byte %d: %v", i, err)
		}
		g := 2
		if bytes.Equal(slot, write) {
			g = 3
		}
		if !reflect.DeepEqual(got, want[g]) {
			t.Fatalf("write cut at byte %d: resumed to epoch %d, want generation %d's state", i, got.nextEpoch, g)
		}
	}
}

// TestCheckpointFileRefusals pins what resume says about a file it
// cannot restore from.
func TestCheckpointFileRefusals(t *testing.T) {
	ck := sampleCheckpoint()
	cfg := Config{ID: ck.id, Population: ck.population, CheckpointDir: t.TempDir()}
	path := checkpointPath(cfg)
	w, files := storeGenerations(t, path, 2)
	w.close()
	bothTorn := bytes.Clone(files[2])
	slotSize := ckptSlotHead + w.capacity
	bothTorn[ckptPage+ckptSlotHead] ^= 1
	bothTorn[ckptPage+slotSize+ckptSlotHead] ^= 1
	for _, tc := range []struct {
		name string
		file []byte
		want string
	}{
		{"bare image", encodeCheckpoint(ck), "transport: invalid checkpoint: bare image without the two-slot envelope"},
		{"both slots invalid", bothTorn, "transport: invalid checkpoint: neither slot holds a valid checkpoint"},
		{"zeroed header", make([]byte, len(files[2])), "transport: invalid checkpoint: bad file magic 0x00000000"},
		{"truncated", files[2][:len(files[2])-1], fmt.Sprintf("transport: invalid checkpoint: %d-byte file for slot capacity %d", len(files[2])-1, w.capacity)},
		{"empty", nil, "transport: invalid checkpoint: 0-byte file, shorter than its header"},
	} {
		if err := writeFileAtomic(path, tc.file, int64(len(tc.file))); err != nil {
			t.Fatal(err)
		}
		_, err := loadCheckpoint(path, cfg, ck.fingerprint)
		if err == nil || err.Error() != tc.want || !errors.Is(err, errCheckpoint) {
			t.Errorf("%s: %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestWriteFileAtomic: the write leaves no temp residue, replaces prior
// content wholesale, extends it with zeroes to the size asked for, and a
// pre-existing stale temp file does not break it — the invariants
// WriteHistory and the checkpoint writer rely on.
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
	want := []byte("complete-new-content\x00\x00\x00")
	if err := writeFileAtomic(path, want[:len(want)-3], int64(len(want))); err != nil {
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

// FuzzDecodeCheckpoint hardens the file reader and the decoder behind
// it. Each input is read twice: as a whole checkpoint file, where
// anything accepted must be the image of one of its two slots; and as
// an image in a freshly laid out file, which the reader must hand back
// unchanged. Either way arbitrary bytes must error cleanly, and an
// image the decoder accepts must re-encode to a decodable form.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add(readHex(f, "checkpoint_v2_sample.hex"))
	f.Add(readHex(f, "checkpoint_v1_sample.hex"))
	f.Add([]byte{})
	f.Add([]byte{0xC1, 0xA8, 0xC4, 0xB7})
	w, files := storeGenerations(f, filepath.Join(f.TempDir(), "0.ckpt"), 2)
	w.close()
	f.Add(files[2])
	torn := bytes.Clone(files[2])
	torn[ckptPage+ckptSlotHead+w.capacity+len(w.buf)/2] ^= 0xFF // generation 2, in slot 1
	f.Add(torn)
	decodes := func(t *testing.T, image []byte) {
		ck, err := decodeCheckpoint(image)
		if err != nil {
			return
		}
		if _, err := decodeCheckpoint(encodeCheckpoint(ck)); err != nil {
			t.Fatalf("accepted checkpoint does not round-trip: %v", err)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if image, _, err := readCheckpointFile(b); err == nil {
			slotSize := ckptSlotHead + int(binary.BigEndian.Uint32(b[4:]))
			if at := cap(b) - cap(image); at != ckptPage+ckptSlotHead && at != ckptPage+slotSize+ckptSlotHead {
				t.Fatalf("accepted image at offset %d is no slot's", at)
			}
			decodes(t, image)
		}
		var w ckptWriter
		w.buf = append(make([]byte, ckptSlotHead), b...)
		head, size := w.layout()
		image, gen, err := readCheckpointFile(append(head, make([]byte, size-int64(len(head)))...))
		if err != nil || gen != 1 || !bytes.Equal(image, b) {
			t.Fatalf("a fresh file hands back generation %d, %v, %d bytes; want generation 1, the %d bytes stored", gen, err, len(image), len(b))
		}
		decodes(t, image)
	})
}
