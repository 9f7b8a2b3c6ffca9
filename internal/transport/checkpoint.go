package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"chiaroscuro/internal/wire"
)

// checkpoint.go persists a node's complete resumable state between
// epochs: the core participant snapshot (which embeds this node's key
// share on the Damgård–Jurik backend), the peer sampler's RNG state,
// every link's sequence numbers and retransmit ring, and the barrier
// buffers (parked payloads, ticks, leftover ceremony backlog). A daemon
// SIGKILLed mid-run restarts with -resume, restores this file, replays
// the resume handshake against the survivors, and continues the run
// with disclosed histories bit-identical to an uninterrupted one.
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
	ckptVersion uint32 = 1
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

// errCheckpoint prefixes every decode failure.
var errCheckpoint = errors.New("transport: invalid checkpoint")

func ckptErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheckpoint, fmt.Sprintf(format, args...))
}

// linkState is one link's checkpointed sequencing state.
type linkState struct {
	outSeq uint64
	inSeq  uint64
	pruned uint64
	ring   []sentFrame
}

// checkpoint is the decoded form of one checkpoint file.
type checkpoint struct {
	fingerprint    uint64
	id             int
	population     int
	nextEpoch      int
	barrierPending bool
	samplerState   uint64
	coreSnap       []byte
	links          map[int]linkState
	pendingData    map[int]map[int][][]byte
	ticks          map[int]map[int]bool
	left           map[int]bool
	backlog        []inMsg
}

func checkpointPath(cfg Config) string {
	return filepath.Join(cfg.CheckpointDir, fmt.Sprintf("%d.ckpt", cfg.ID))
}

// ckptWriter builds checkpoint images in storage it keeps and writes
// them into the slots of the checkpoint file it holds open. The buffer
// and the scratch its sorted map walks need are the node's for the
// whole run, so from the third checkpoint of a run on, encoding and the
// slot write allocate nothing (TestCheckpointEncodeAllocatesNothing).
// The buffer reserves the slot header in front of the image, which is
// head, core snapshot field, link count and links in ascending peer
// order, barrier state: a slot is one write of the buffer, no copy.
type ckptWriter struct {
	buf         []byte
	epochs, ids []int // a map's keys in ascending order

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
	if err := writeFileAtomic(path, w.layout()); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	w.f = f
	return nil
}

// layout seals the image as generation 1 and returns a new file around
// it: the header page, slot 0, and slot 1 zeroed. A slot holds about
// twice the image the run settles at — this one, with its rings grown
// to their whole retention window — so a run lays its file out once;
// an image that still outgrows its slot lays out another.
func (w *ckptWriter) layout() []byte {
	settled := len(w.buf)
	if held := max(w.held, 1); held < w.window {
		settled += w.rings * (w.window - held) / held
	}
	slotSize := (2*settled + ckptPage - 1) / ckptPage * ckptPage
	w.capacity, w.gen = slotSize-ckptSlotHead, 1
	file := make([]byte, ckptPage+2*slotSize)
	binary.BigEndian.PutUint32(file, ckptFileMagic)
	binary.BigEndian.PutUint32(file[4:], uint32(w.capacity))
	copy(file[ckptPage:], w.seal(1))
	return file
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

// sortedKeys returns m's keys in ascending order, in dst's storage.
func sortedKeys[V any](dst []int, m map[int]V) []int {
	dst = dst[:0]
	for k := range m {
		dst = append(dst, k)
	}
	sort.Ints(dst)
	return dst
}

func appendFlag(buf []byte, set bool) []byte {
	if set {
		return wire.AppendUint32(buf, 1)
	}
	return wire.AppendUint32(buf, 0)
}

// head starts a new image behind the reserved slot header: everything
// before the core snapshot.
func (w *ckptWriter) head(fingerprint uint64, id, population, nextEpoch int, barrierPending bool, samplerState uint64) {
	var slotHead [ckptSlotHead]byte
	buf := wire.AppendUint32(append(w.buf[:0], slotHead[:]...), ckptMagic)
	buf = wire.AppendUint32(buf, ckptVersion)
	buf = wire.AppendUint64(buf, fingerprint)
	buf = wire.AppendUint32(buf, uint32(id))
	buf = wire.AppendUint32(buf, uint32(population))
	buf = wire.AppendUint32(buf, uint32(nextEpoch))
	buf = appendFlag(buf, barrierPending)
	w.buf = wire.AppendUint64(buf, samplerState)
	w.rings, w.held = 0, nextEpoch
}

// link appends one link's sequencing state and retransmit ring. The
// ring is only read, so the caller may pass a live link's under its lock.
func (w *ckptWriter) link(peer int, ls linkState) {
	buf := wire.AppendUint32(w.buf, uint32(peer))
	buf = wire.AppendUint64(buf, ls.outSeq)
	buf = wire.AppendUint64(buf, ls.inSeq)
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

// barrier appends the barrier buffers, which end the image.
func (w *ckptWriter) barrier(pendingData map[int]map[int][][]byte, ticks map[int]map[int]bool, left map[int]bool, backlog []inMsg) {
	buf := w.buf
	w.epochs = sortedKeys(w.epochs, pendingData)
	buf = wire.AppendUint32(buf, uint32(len(w.epochs)))
	for _, e := range w.epochs {
		buf = wire.AppendUint32(buf, uint32(e))
		w.ids = sortedKeys(w.ids, pendingData[e])
		buf = wire.AppendUint32(buf, uint32(len(w.ids)))
		for _, s := range w.ids {
			buf = wire.AppendUint32(buf, uint32(s))
			buf = wire.AppendUint32(buf, uint32(len(pendingData[e][s])))
			for _, p := range pendingData[e][s] {
				buf = wire.AppendBytes(buf, p)
			}
		}
	}

	w.epochs = sortedKeys(w.epochs, ticks)
	buf = wire.AppendUint32(buf, uint32(len(w.epochs)))
	for _, e := range w.epochs {
		buf = wire.AppendUint32(buf, uint32(e))
		w.ids = sortedKeys(w.ids, ticks[e])
		buf = wire.AppendUint32(buf, uint32(len(w.ids)))
		for _, s := range w.ids {
			buf = wire.AppendUint32(buf, uint32(s))
			buf = appendFlag(buf, ticks[e][s])
		}
	}

	w.ids = sortedKeys(w.ids, left)
	buf = wire.AppendUint32(buf, uint32(len(w.ids)))
	for _, id := range w.ids {
		buf = wire.AppendUint32(buf, uint32(id))
	}

	buf = wire.AppendUint32(buf, uint32(len(backlog)))
	for _, m := range backlog {
		buf = wire.AppendUint32(buf, uint32(m.from))
		buf = wire.AppendUint32(buf, uint32(m.kind))
		buf = wire.AppendUint32(buf, uint32(m.epoch))
		buf = appendFlag(buf, m.done)
		buf = wire.AppendBytes(buf, m.payload)
	}
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
	ck := &checkpoint{
		links:       map[int]linkState{},
		pendingData: map[int]map[int][][]byte{},
		ticks:       map[int]map[int]bool{},
		left:        map[int]bool{},
	}
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
	flag, err := fr.Uint32()
	if err != nil {
		return nil, ckptErr("%v", err)
	}
	if flag > 1 {
		return nil, ckptErr("barrier flag %d", flag)
	}
	ck.barrierPending = flag == 1
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
	if nLinks >= pop {
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
		if ls.inSeq, err = fr.Uint64(); err != nil {
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

	if err := readEpochPayloads(fr, ck, pop); err != nil {
		return nil, err
	}
	if err := readEpochTicks(fr, ck, pop); err != nil {
		return nil, err
	}

	nLeft, err := fr.Uint32()
	if err != nil {
		return nil, ckptErr("%v", err)
	}
	if nLeft >= pop {
		return nil, ckptErr("%d departed peers for population %d", nLeft, pop)
	}
	for i := uint32(0); i < nLeft; i++ {
		peer, err := fr.Uint32()
		if err != nil {
			return nil, ckptErr("%v", err)
		}
		if peer >= pop {
			return nil, ckptErr("departed peer %d out of range", peer)
		}
		ck.left[int(peer)] = true
	}

	nBacklog, err := fr.Uint32()
	if err != nil {
		return nil, ckptErr("%v", err)
	}
	if nBacklog > ckptMaxCount {
		return nil, ckptErr("backlog of %d messages", nBacklog)
	}
	for i := uint32(0); i < nBacklog; i++ {
		var m inMsg
		from, err := fr.Uint32()
		if err != nil {
			return nil, ckptErr("%v", err)
		}
		if from >= pop || from == id {
			return nil, ckptErr("backlog sender %d out of range", from)
		}
		m.from = int(from)
		kind, err := fr.Uint32()
		if err != nil {
			return nil, ckptErr("%v", err)
		}
		if kind != uint32(mtTick) && kind != uint32(mtData) {
			return nil, ckptErr("backlog kind 0x%02x", kind)
		}
		m.kind = byte(kind)
		e, err := fr.Uint32()
		if err != nil {
			return nil, ckptErr("%v", err)
		}
		m.epoch = int(e)
		d, err := fr.Uint32()
		if err != nil {
			return nil, ckptErr("%v", err)
		}
		if d > 1 {
			return nil, ckptErr("backlog done flag %d", d)
		}
		m.done = d == 1
		if m.payload, err = fr.Bytes(); err != nil {
			return nil, ckptErr("backlog payload: %v", err)
		}
		ck.backlog = append(ck.backlog, m)
	}
	if err := fr.Done(); err != nil {
		return nil, ckptErr("%v", err)
	}
	return ck, nil
}

func readEpochPayloads(fr *wire.FieldReader, ck *checkpoint, pop uint32) error {
	nEpochs, err := fr.Uint32()
	if err != nil {
		return ckptErr("%v", err)
	}
	if nEpochs > ckptMaxCount {
		return ckptErr("%d payload epochs", nEpochs)
	}
	for i := uint32(0); i < nEpochs; i++ {
		e, err := fr.Uint32()
		if err != nil {
			return ckptErr("%v", err)
		}
		if _, dup := ck.pendingData[int(e)]; dup {
			return ckptErr("duplicate payload epoch %d", e)
		}
		nSenders, err := fr.Uint32()
		if err != nil {
			return ckptErr("%v", err)
		}
		if nSenders >= pop {
			return ckptErr("%d payload senders", nSenders)
		}
		bySender := map[int][][]byte{}
		for j := uint32(0); j < nSenders; j++ {
			s, err := fr.Uint32()
			if err != nil {
				return ckptErr("%v", err)
			}
			if s >= pop {
				return ckptErr("payload sender %d out of range", s)
			}
			if _, dup := bySender[int(s)]; dup {
				return ckptErr("duplicate payload sender %d", s)
			}
			nPayloads, err := fr.Uint32()
			if err != nil {
				return ckptErr("%v", err)
			}
			if nPayloads > ckptMaxCount {
				return ckptErr("%d payloads", nPayloads)
			}
			var payloads [][]byte
			for k := uint32(0); k < nPayloads; k++ {
				p, err := fr.Bytes()
				if err != nil {
					return ckptErr("payload: %v", err)
				}
				payloads = append(payloads, p)
			}
			bySender[int(s)] = payloads
		}
		ck.pendingData[int(e)] = bySender
	}
	return nil
}

func readEpochTicks(fr *wire.FieldReader, ck *checkpoint, pop uint32) error {
	nEpochs, err := fr.Uint32()
	if err != nil {
		return ckptErr("%v", err)
	}
	if nEpochs > ckptMaxCount {
		return ckptErr("%d tick epochs", nEpochs)
	}
	for i := uint32(0); i < nEpochs; i++ {
		e, err := fr.Uint32()
		if err != nil {
			return ckptErr("%v", err)
		}
		if _, dup := ck.ticks[int(e)]; dup {
			return ckptErr("duplicate tick epoch %d", e)
		}
		nSenders, err := fr.Uint32()
		if err != nil {
			return ckptErr("%v", err)
		}
		if nSenders >= pop {
			return ckptErr("%d tick senders", nSenders)
		}
		bySender := map[int]bool{}
		for j := uint32(0); j < nSenders; j++ {
			s, err := fr.Uint32()
			if err != nil {
				return ckptErr("%v", err)
			}
			if s >= pop {
				return ckptErr("tick sender %d out of range", s)
			}
			if _, dup := bySender[int(s)]; dup {
				return ckptErr("duplicate tick sender %d", s)
			}
			d, err := fr.Uint32()
			if err != nil {
				return ckptErr("%v", err)
			}
			if d > 1 {
				return ckptErr("tick done flag %d", d)
			}
			bySender[int(s)] = d == 1
		}
		ck.ticks[int(e)] = bySender
	}
	return nil
}

// encodeCheckpoint captures the node's full resumable state as a
// checkpoint image in the node's ckptWriter. Nothing is copied out
// first: the core snapshot is appended into the image and every ring is
// encoded under its link's lock.
func (n *node) encodeCheckpoint(nextEpoch int, barrierPending bool) ([]byte, error) {
	w := &n.ckpt
	w.window = n.cfg.ringRetention() + 1
	w.head(n.fp, n.cfg.ID, n.cfg.Population, nextEpoch, barrierPending, n.sampler.State())
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
		// inSeq is the PROCESSED watermark, not the read loop's accept
		// watermark: frames accepted but still queued in n.in would be
		// lost by a restart, so the resume handshake must re-request
		// them from the peer's ring.
		w.link(id, linkState{outSeq: l.outSeq, inSeq: n.procSeq[id], pruned: l.pruned, ring: l.ring})
		l.mu.Unlock()
	}
	w.barrier(n.pendingData, n.ticks, n.left, n.backlog)
	return w.image(), nil
}

// writeCheckpoint encodes the node's state and stores it in a slot of
// the checkpoint file. It returns once the slot is durable: the next
// epoch does not start over a checkpoint that a crash could lose.
func (n *node) writeCheckpoint(nextEpoch int, barrierPending bool) error {
	_, err := n.encodeCheckpoint(nextEpoch, barrierPending)
	if err == nil {
		err = n.ckpt.store(checkpointPath(n.cfg))
	}
	if err != nil {
		return fmt.Errorf("transport: checkpoint: %w", err)
	}
	n.cfg.logf("node %d checkpointed epoch %d (barrier pending: %v)", n.cfg.ID, nextEpoch, barrierPending)
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
// yet: formMesh reconnects them all).
func (n *node) restoreFromCheckpoint(ck *checkpoint) {
	n.startEpoch = ck.nextEpoch
	n.barrierPending = ck.barrierPending
	n.pendingData = ck.pendingData
	n.ticks = ck.ticks
	n.left = ck.left
	n.backlog = ck.backlog
	for id, l := range n.links {
		if l == nil {
			continue
		}
		ls := ck.links[id]
		l.mu.Lock()
		l.outSeq = ls.outSeq
		l.inSeq = ls.inSeq
		l.pruned = ls.pruned
		l.ring = ls.ring
		l.mu.Unlock()
		n.procSeq[id] = ls.inSeq
	}
}

// writeFileAtomic writes data to path with crash-safe durability: the
// bytes are written to a temp file in the same directory, fsynced,
// renamed over the target, and the directory entry itself fsynced. A
// reader therefore sees either the old complete file or the new one —
// never a torn write. It creates every checkpoint file and writes every
// history file (WriteHistory).
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
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
