package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"chiaroscuro/internal/wire"
)

// checkpoint.go persists a node's resumable state between epochs. Every
// checkpoint has one shape: the core has stepped epoch s, and a resume
// waits at barrier s. The image holds the core participant snapshot
// (which embeds this node's key share on the Damgård–Jurik backend), the
// peer sampler's RNG state, and every link's sequence numbers and
// retransmit ring; for each link it records consumedSeq, the seq of the
// peer's last frame the core snapshot has absorbed — the peer's
// tick(s−1), or its last ceremony frame when s = 0. Nothing that
// arrived after it is kept: a resumed node's receive watermark is
// consumedSeq, so the resume handshake makes every peer retransmit
// data(s), tick(s) and anything later from its ring, and the ordinary
// read path refills the barrier buffers from them, as per-link FIFO
// order fills them in a run that never stopped. A daemon SIGKILLed
// mid-run restarts with -resume, restores this file, re-forms the mesh
// and continues the run with disclosed histories bit-identical to an
// uninterrupted one.
//
// The image goes into one of two slots of "<id>.ckpt", a file the node
// keeps open for the whole run:
//
//	page 0    header: ckptFileMagic, slot capacity (image bytes per slot)
//	slot 0    generation, image length, CRC-32C, image    (page-aligned)
//	slot 1    the same, at slot 0's offset plus one slot size
//
// Every header field is a big-endian uint32 except the uint64
// generation; the CRC (Castagnoli) covers generation, length and image.
// A steady-state checkpoint is one positioned write into the slot that
// does not hold the newest generation, then one fsync. A crash can tear
// only that slot, whose write had not returned yet; the other slot still
// holds the previous durable checkpoint, and resume takes the valid slot
// with the highest generation. A run's first checkpoint, and one whose
// image outgrows a slot, lays out a new file instead and writes it
// through writeFileAtomic, so "<id>.ckpt" never exists without a valid
// slot.

const (
	ckptMagic   uint32 = 0xC1A8C4B7
	ckptVersion uint32 = 2
	// ckptMaxCount bounds every element count read from a checkpoint
	// before allocation, so corrupt or adversarial length fields cannot
	// demand unbounded memory.
	ckptMaxCount = 1 << 20

	// ckptFileMagic opens the two-slot file; it differs from ckptMagic,
	// so a bare image written before the slots existed is told apart.
	ckptFileMagic uint32 = 0xC1A8C5D2
	// ckptPage is the header's size and the unit slot sizes round up
	// to: a slot write touches neither the header nor the other slot.
	ckptPage = 4096
	// ckptSlotHead is a slot's header: generation, length, CRC-32C.
	ckptSlotHead = 16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// zeroPage is what writeFileAtomic pads a file with. The zeroes are
// written, not left as a hole (File.Truncate): the first overwrites of
// a sparse slot allocate its blocks under the fsync that follows them.
var zeroPage [ckptPage]byte

// errCheckpoint prefixes every decode failure.
var errCheckpoint = errors.New("transport: invalid checkpoint")

func ckptErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheckpoint, fmt.Sprintf(format, args...))
}

// linkState is one link's checkpointed sequencing state.
type linkState struct {
	outSeq      uint64
	consumedSeq uint64 // the peer's last frame the core snapshot absorbed
	pruned      uint64
	ring        []sentFrame
}

// checkpoint is the decoded form of one checkpoint file.
type checkpoint struct {
	fingerprint uint64
	id          int
	population  int
	// nextEpoch is the first epoch the core has not stepped: a resume
	// waits at barrier nextEpoch−1, or steps epoch 0 when it is 0.
	nextEpoch    int
	samplerState uint64
	coreSnap     []byte
	links        map[int]linkState // one per peer
}

func checkpointPath(cfg Config) string {
	return filepath.Join(cfg.CheckpointDir, fmt.Sprintf("%d.ckpt", cfg.ID))
}

// ckptWriter builds checkpoint images in storage it keeps and writes
// them into the slots of the checkpoint file it holds open. The buffer
// is the node's for the whole run, so from the third checkpoint of a
// run on, encoding and the slot write allocate nothing
// (TestCheckpointEncodeAllocatesNothing). The buffer reserves the slot
// header in front of the image, which is head, core snapshot field,
// link count and links in ascending peer order: a slot is one write of
// the buffer, no copy.
type ckptWriter struct {
	buf []byte

	// Ring accounting of the image in buf, for sizing a new file: rings
	// is the bytes its retransmit rings take, held the epochs they hold
	// (the image's next epoch), window the epochs they hold once pruning
	// keeps them steady (0: no estimate, size by the image alone).
	rings, held, window int

	f        *os.File // the open checkpoint file; nil until the first store
	capacity int      // image bytes one slot of f holds
	gen      uint64   // generation of f's newest slot
}

// image returns the encoded checkpoint, without the slot header.
func (w *ckptWriter) image() []byte { return w.buf[ckptSlotHead:] }

// seal stamps the slot header in front of the image for generation gen
// and returns the whole slot write.
func (w *ckptWriter) seal(gen uint64) []byte {
	binary.BigEndian.PutUint64(w.buf, gen)
	binary.BigEndian.PutUint32(w.buf[8:], uint32(len(w.buf)-ckptSlotHead))
	binary.BigEndian.PutUint32(w.buf[12:], slotSum(w.buf, w.image()))
	return w.buf
}

// slotSum is the CRC-32C a slot header stores: over the header's
// generation and length, then the image.
func slotSum(head, image []byte) uint32 {
	return crc32.Update(crc32.Update(0, castagnoli, head[:12]), castagnoli, image)
}

// store makes the encoded image durable. Once the file is open, that is
// one WriteAt into the slot not holding the newest generation (g lives
// in slot (g-1)%2) and one Sync: no open, rename or directory sync.
func (w *ckptWriter) store(path string) error {
	if w.f == nil || len(w.buf)-ckptSlotHead > w.capacity {
		return w.create(path)
	}
	slotSize := int64(ckptSlotHead + w.capacity)
	if _, err := w.f.WriteAt(w.seal(w.gen+1), ckptPage+int64(w.gen%2)*slotSize); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.gen++
	return nil
}

// create replaces the checkpoint file with a new one holding the image
// as generation 1 in slot 0, and keeps it open for the overwrites.
func (w *ckptWriter) create(path string) error {
	if err := w.close(); err != nil {
		return err
	}
	head, size := w.layout()
	if err := writeFileAtomic(path, head, size); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	w.f = f
	return nil
}

// layout seals the image as generation 1 and returns the start of a
// new file around it — the header page and slot 0 — and the file's
// length, which writeFileAtomic pads to with zeroes: the rest of slot 0
// and slot 1 are never built in memory. A slot holds about twice the
// image the run settles at — this one, with its rings grown to their
// whole retention window — so a run lays its file out once; an image
// that still outgrows its slot lays out another.
func (w *ckptWriter) layout() (head []byte, size int64) {
	settled := len(w.buf)
	if held := max(w.held, 1); held < w.window {
		settled += w.rings * (w.window - held) / held
	}
	slotSize := (2*settled + ckptPage - 1) / ckptPage * ckptPage
	w.capacity, w.gen = slotSize-ckptSlotHead, 1
	head = make([]byte, ckptPage, ckptPage+len(w.buf))
	binary.BigEndian.PutUint32(head, ckptFileMagic)
	binary.BigEndian.PutUint32(head[4:], uint32(w.capacity))
	return append(head, w.seal(1)...), int64(ckptPage + 2*slotSize)
}

// close closes the checkpoint file, if one is open.
func (w *ckptWriter) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// readCheckpointFile returns the image in the valid slot of a
// checkpoint file with the highest generation. A slot is valid when its
// length fits the capacity and its CRC matches; zeroed and torn slots
// are not.
func readCheckpointFile(b []byte) (image []byte, gen uint64, err error) {
	if len(b) < ckptPage || binary.BigEndian.Uint32(b) != ckptFileMagic {
		// An image opens with ckptMagic as a length-prefixed scalar.
		if len(b) >= 8 && binary.BigEndian.Uint32(b[4:]) == ckptMagic {
			return nil, 0, ckptErr("bare image without the two-slot envelope")
		}
		if len(b) < ckptPage {
			return nil, 0, ckptErr("%d-byte file, shorter than its header", len(b))
		}
		return nil, 0, ckptErr("bad file magic 0x%08x", binary.BigEndian.Uint32(b))
	}
	capacity := int64(binary.BigEndian.Uint32(b[4:]))
	slotSize := ckptSlotHead + capacity
	if int64(len(b)) != ckptPage+2*slotSize {
		return nil, 0, ckptErr("%d-byte file for slot capacity %d", len(b), capacity)
	}
	for i := int64(0); i < 2; i++ {
		slot := b[ckptPage+i*slotSize : ckptPage+(i+1)*slotSize]
		g := binary.BigEndian.Uint64(slot)
		n := int64(binary.BigEndian.Uint32(slot[8:]))
		if g == 0 || g <= gen || n > capacity {
			continue
		}
		if img := slot[ckptSlotHead : ckptSlotHead+n]; slotSum(slot, img) == binary.BigEndian.Uint32(slot[12:]) {
			image, gen = img, g
		}
	}
	if gen == 0 {
		return nil, 0, ckptErr("neither slot holds a valid checkpoint")
	}
	return image, gen, nil
}

// head starts a new image behind the reserved slot header: everything
// before the core snapshot.
func (w *ckptWriter) head(fingerprint uint64, id, population, nextEpoch int, samplerState uint64) {
	var slotHead [ckptSlotHead]byte
	buf := wire.AppendUint32(append(w.buf[:0], slotHead[:]...), ckptMagic)
	buf = wire.AppendUint32(buf, ckptVersion)
	buf = wire.AppendUint64(buf, fingerprint)
	buf = wire.AppendUint32(buf, uint32(id))
	buf = wire.AppendUint32(buf, uint32(population))
	buf = wire.AppendUint32(buf, uint32(nextEpoch))
	w.buf = wire.AppendUint64(buf, samplerState)
	w.rings, w.held = 0, nextEpoch
}

// link appends one link's sequencing state and retransmit ring. The
// ring is only read, so the caller may pass a live link's under its lock.
func (w *ckptWriter) link(peer int, ls linkState) {
	buf := wire.AppendUint32(w.buf, uint32(peer))
	buf = wire.AppendUint64(buf, ls.outSeq)
	buf = wire.AppendUint64(buf, ls.consumedSeq)
	buf = wire.AppendUint64(buf, ls.pruned)
	buf = wire.AppendUint32(buf, uint32(len(ls.ring)))
	start := len(buf)
	for _, sf := range ls.ring {
		buf = wire.AppendUint64(buf, sf.seq)
		buf = wire.AppendUint32(buf, uint32(sf.epoch))
		buf = wire.AppendBytes(buf, sf.frame)
	}
	w.rings += len(buf) - start
	w.buf = buf
}

// decodeCheckpoint parses and validates one checkpoint image. It is
// hardened like the wire decoders: arbitrary bytes produce an error,
// never a panic or unbounded allocation (FuzzDecodeCheckpoint).
func decodeCheckpoint(b []byte) (*checkpoint, error) {
	fr := wire.NewFieldReader(b)
	magic, err := fr.Uint32()
	if err != nil {
		return nil, ckptErr("%v", err)
	}
	if magic != ckptMagic {
		return nil, ckptErr("bad magic 0x%08x", magic)
	}
	version, err := fr.Uint32()
	if err != nil {
		return nil, ckptErr("%v", err)
	}
	if version != ckptVersion {
		return nil, ckptErr("version %d, want %d", version, ckptVersion)
	}
	ck := &checkpoint{links: map[int]linkState{}}
	if ck.fingerprint, err = fr.Uint64(); err != nil {
		return nil, ckptErr("%v", err)
	}
	id, err := fr.Uint32()
	if err != nil {
		return nil, ckptErr("%v", err)
	}
	pop, err := fr.Uint32()
	if err != nil {
		return nil, ckptErr("%v", err)
	}
	if pop < 2 || pop > ckptMaxCount {
		return nil, ckptErr("population %d out of range", pop)
	}
	if id >= pop {
		return nil, ckptErr("id %d outside population %d", id, pop)
	}
	ck.id, ck.population = int(id), int(pop)
	epoch, err := fr.Uint32()
	if err != nil {
		return nil, ckptErr("%v", err)
	}
	ck.nextEpoch = int(epoch)
	if ck.samplerState, err = fr.Uint64(); err != nil {
		return nil, ckptErr("%v", err)
	}
	if ck.coreSnap, err = fr.Bytes(); err != nil {
		return nil, ckptErr("core snapshot: %v", err)
	}

	nLinks, err := fr.Uint32()
	if err != nil {
		return nil, ckptErr("%v", err)
	}
	if nLinks != pop-1 {
		return nil, ckptErr("%d links for population %d", nLinks, pop)
	}
	for i := uint32(0); i < nLinks; i++ {
		peer, err := fr.Uint32()
		if err != nil {
			return nil, ckptErr("%v", err)
		}
		if peer >= pop || peer == id {
			return nil, ckptErr("link peer %d out of range", peer)
		}
		if _, dup := ck.links[int(peer)]; dup {
			return nil, ckptErr("duplicate link peer %d", peer)
		}
		var ls linkState
		if ls.outSeq, err = fr.Uint64(); err != nil {
			return nil, ckptErr("%v", err)
		}
		if ls.consumedSeq, err = fr.Uint64(); err != nil {
			return nil, ckptErr("%v", err)
		}
		if ls.pruned, err = fr.Uint64(); err != nil {
			return nil, ckptErr("%v", err)
		}
		nRing, err := fr.Uint32()
		if err != nil {
			return nil, ckptErr("%v", err)
		}
		if nRing > ckptMaxCount {
			return nil, ckptErr("ring of %d frames", nRing)
		}
		prev := ls.pruned
		for j := uint32(0); j < nRing; j++ {
			var sf sentFrame
			if sf.seq, err = fr.Uint64(); err != nil {
				return nil, ckptErr("%v", err)
			}
			if sf.seq <= prev {
				return nil, ckptErr("ring seq %d not ascending past %d", sf.seq, prev)
			}
			prev = sf.seq
			e, err := fr.Uint32()
			if err != nil {
				return nil, ckptErr("%v", err)
			}
			sf.epoch = int(e)
			if sf.frame, err = fr.Bytes(); err != nil {
				return nil, ckptErr("ring frame: %v", err)
			}
			if len(sf.frame) < 8 || len(sf.frame) > wire.MaxFrameBytes {
				return nil, ckptErr("ring frame of %d bytes", len(sf.frame))
			}
			if got := binary.BigEndian.Uint64(sf.frame); got != sf.seq {
				return nil, ckptErr("ring frame seq %d does not match entry %d", got, sf.seq)
			}
			ls.ring = append(ls.ring, sf)
		}
		if len(ls.ring) > 0 && ls.ring[len(ls.ring)-1].seq > ls.outSeq {
			return nil, ckptErr("ring seq %d beyond outSeq %d", ls.ring[len(ls.ring)-1].seq, ls.outSeq)
		}
		ck.links[int(peer)] = ls
	}

	if err := fr.Done(); err != nil {
		return nil, ckptErr("%v", err)
	}
	return ck, nil
}

// encodeCheckpoint captures the node's resumable state, the core having
// stepped every epoch before nextEpoch, as a checkpoint image in the
// node's ckptWriter. Nothing is copied out first: the core snapshot is
// appended into the image and every ring is encoded under its link's
// lock.
func (n *node) encodeCheckpoint(nextEpoch int) ([]byte, error) {
	w := &n.ckpt
	w.window = n.cfg.ringRetention() + 1
	w.head(n.fp, n.cfg.ID, n.cfg.Population, nextEpoch, n.sampler.State())
	buf, snap := wire.BeginField(w.buf)
	buf, err := n.core.AppendSnapshot(buf)
	if err != nil {
		return nil, err
	}
	w.buf = wire.AppendUint32(wire.EndField(buf, snap), uint32(n.cfg.Population-1))
	for id, l := range n.links {
		if l == nil {
			continue
		}
		l.mu.Lock()
		w.link(id, linkState{outSeq: l.outSeq, consumedSeq: n.consumed[id], pruned: l.pruned, ring: l.ring})
		l.mu.Unlock()
	}
	return w.image(), nil
}

// writeCheckpoint encodes the node's state and stores it in a slot of
// the checkpoint file. It returns once the slot is durable: the next
// epoch does not start over a checkpoint that a crash could lose.
func (n *node) writeCheckpoint(nextEpoch int) error {
	_, err := n.encodeCheckpoint(nextEpoch)
	if err == nil {
		err = n.ckpt.store(checkpointPath(n.cfg))
	}
	if err != nil {
		return fmt.Errorf("transport: checkpoint: %w", err)
	}
	n.cfg.logf("node %d checkpointed epoch %d", n.cfg.ID, nextEpoch)
	return nil
}

// loadCheckpoint reads the newest valid slot of the checkpoint file and
// validates it for this node and run configuration.
func loadCheckpoint(path string, cfg Config, fp uint64) (*checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("transport: resume: %w", err)
	}
	image, _, err := readCheckpointFile(b)
	if err != nil {
		return nil, err
	}
	ck, err := decodeCheckpoint(image)
	if err != nil {
		return nil, err
	}
	if ck.fingerprint != fp {
		return nil, ckptErr("checkpoint belongs to a different run configuration")
	}
	if ck.id != cfg.ID {
		return nil, ckptErr("checkpoint belongs to node %d, not %d", ck.id, cfg.ID)
	}
	if ck.population != cfg.Population {
		return nil, ckptErr("checkpoint population %d, want %d", ck.population, cfg.Population)
	}
	return ck, nil
}

// restoreFromCheckpoint installs the checkpointed transport state into
// a freshly built node (links exist, down, and carry no connections
// yet: formMesh reconnects them all). Each link's receive watermark is
// the seq the core consumed, so the resume handshake asks every peer
// for whatever the barrier buffers held. Departures need no restoring:
// a bye is unsequenced and never retransmitted, and formMesh returns
// only once every link is up again, so the resumed node rightly knows
// of no peer that left.
func (n *node) restoreFromCheckpoint(ck *checkpoint) {
	n.startEpoch = ck.nextEpoch
	for id, l := range n.links {
		if l == nil {
			continue
		}
		ls := ck.links[id]
		l.mu.Lock()
		l.outSeq, l.inSeq, l.pruned, l.ring = ls.outSeq, ls.consumedSeq, ls.pruned, ls.ring
		l.mu.Unlock()
		n.consumed[id] = ls.consumedSeq
	}
}

// writeFileAtomic writes data to path with crash-safe durability: the
// bytes are written to a temp file in the same directory, followed by
// zeroes up to size bytes, fsynced, renamed over the target, and the
// directory entry itself fsynced. A reader therefore sees either the
// old complete file or the new one — never a torn write. It creates
// every checkpoint file and writes every history file (WriteHistory).
func writeFileAtomic(path string, data []byte, size int64) error {
	dir := filepath.Dir(path)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	for pad := size - int64(len(data)); err == nil && pad > 0; pad -= ckptPage {
		_, err = f.Write(zeroPage[:min(pad, ckptPage)])
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	// The rename is durable only once the directory entry is: a failure
	// to open or sync the directory is a failed write, not a detail.
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
