package damgardjurik

import (
	"math/big"
	"sync"
	"sync/atomic"
)

// RandomizerPool mints encryption randomizers (H^α values from an
// EncContext) ahead of use, so that hot-path Rerandomize and Encrypt
// calls reduce to taking a minted value plus one modular multiplication.
//
// The pool mints only what it is provisioned for. Provision adds to a
// budget; one background filler mints against it while the buffer has
// room and exits when either runs out, so an idle pool runs no
// goroutine and an unprovisioned one computes nothing. A Get on an
// empty buffer mints synchronously from the budget — or, when the
// filler is minting the budget's last randomizers, waits for one of
// those — and a draw past the provision is minted on the spot and
// counted as a miss. A caller that provisions exactly what it draws
// therefore mints exactly that many, whichever goroutine computes them.
//
// Recycle hands a spent randomizer's storage back for a later mint.
// The pool is safe for concurrent use by parallel shard workers. Close
// stops the fill; the pool stays usable (synchronously) afterwards.
type RandomizerPool struct {
	ctx *EncContext

	mu       sync.Mutex
	ready    sync.Cond  // broadcast when the filler delivers or exits
	buf      []*big.Int // minted, not yet drawn; cap(buf) is the capacity
	low      int
	budget   int        // provisioned randomizers nobody has started minting
	inflight int        // claimed by the filler and still being computed
	free     []*big.Int // storage for the next mints, at most cap(buf)
	stocked  int        // storage Provision has carved, at most cap(buf)
	filling  bool
	closed   bool
	wg       sync.WaitGroup

	minted atomic.Int64
	misses atomic.Int64
}

// NewRandomizerPool builds an empty, unprovisioned pool over ctx whose
// buffer holds up to capacity randomizers (at least 1). Every α comes
// from crypto/rand.
func NewRandomizerPool(ctx *EncContext, capacity int) *RandomizerPool {
	capacity = max(capacity, 1)
	p := &RandomizerPool{
		ctx:  ctx,
		buf:  make([]*big.Int, 0, capacity),
		free: make([]*big.Int, 0, capacity),
		low:  (capacity + 1) / 2,
	}
	p.ready.L = &p.mu
	return p
}

// Provision adds n randomizers to what the pool mints ahead of use and
// starts the filler on them. Storage for as many as the buffer holds is
// carved here, from one slab, so minting does not allocate while
// Recycle hands it back.
func (p *RandomizerPool) Provision(n int) {
	if n <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.budget += n
	if more := min(p.budget, cap(p.buf)) - p.stocked; more > 0 {
		// Room for a double-width product's remainder, which is what
		// every mint's reduction writes.
		words := 2*len(p.ctx.pk.ns1.Bits()) + 1
		ints := make([]big.Int, more)
		slab := make([]big.Word, more*words)
		for i := range ints {
			ints[i].SetBits(slab[i*words : i*words : (i+1)*words])
			p.free = append(p.free, &ints[i])
		}
		p.stocked += more
	}
	p.fillLocked()
}

// Get returns a fresh randomizer, preferring the minted buffer. The
// caller owns it until it hands it to Recycle.
func (p *RandomizerPool) Get() *big.Int {
	p.mu.Lock()
	for len(p.buf) == 0 && p.budget == 0 && p.inflight > 0 {
		p.ready.Wait()
	}
	if n := len(p.buf); n > 0 {
		rz := p.buf[n-1]
		p.buf = p.buf[:n-1]
		p.fillLocked()
		p.mu.Unlock()
		return rz
	}
	if p.budget > 0 {
		p.budget--
		p.fillLocked()
	} else {
		p.misses.Add(1)
	}
	rz := p.spareLocked()
	p.mu.Unlock()
	return p.mint(rz)
}

// Recycle hands back a randomizer from Get once its product has been
// taken; a later mint overwrites it. The caller must not use rz again.
func (p *RandomizerPool) Recycle(rz *big.Int) {
	p.mu.Lock()
	if len(p.free) < cap(p.free) {
		p.free = append(p.free, rz)
	}
	p.mu.Unlock()
}

// Rerandomize refreshes c with a pooled randomizer: c · H^α mod n^{s+1}.
func (p *RandomizerPool) Rerandomize(c *big.Int) (*big.Int, error) {
	if err := p.ctx.pk.CheckCiphertext(c); err != nil {
		return nil, err
	}
	rz := p.Get()
	out := rz.Mul(c, rz) // rz is ours: single-use, safe to clobber
	return out.Mod(out, p.ctx.pk.ns1), nil
}

// Encrypt is pooled fast-path encryption: (1+n)^m · pooled randomizer.
// The exponent reduction lives in pooled scratch; the ciphertext is
// fresh (callers retain it).
func (p *RandomizerPool) Encrypt(m *big.Int) (*big.Int, error) {
	if m == nil {
		return nil, ErrInvalidPlaintext
	}
	rz := p.Get()
	pk := p.ctx.pk
	mm := getInt()
	mm.Mod(m, pk.ns)
	c := pk.powOnePlusN(mm)
	putInt(mm)
	c.Mul(c, rz)
	p.Recycle(rz)
	return c.Mod(c, pk.ns1), nil
}

// Stats reports the randomizers minted, in the background or
// synchronously, and the draws that found the provision exhausted.
func (p *RandomizerPool) Stats() (minted, misses int64) {
	return p.minted.Load(), p.misses.Load()
}

// Close stops the background fill. Idempotent.
func (p *RandomizerPool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.wg.Wait()
}

// spareLocked returns storage for a mint: carved or recycled, else new.
func (p *RandomizerPool) spareLocked() *big.Int {
	n := len(p.free)
	if n == 0 {
		return new(big.Int)
	}
	rz := p.free[n-1]
	p.free = p.free[:n-1]
	return rz
}

// mint computes one randomizer into rz.
func (p *RandomizerPool) mint(rz *big.Int) *big.Int {
	p.ctx.randomizerInto(rz)
	p.minted.Add(1)
	return rz
}

// fillLocked starts the filler when the buffer is below its low mark,
// something is provisioned, and none runs. Holding p.mu makes the
// closed-check and wg.Add atomic with respect to Close, so no filler
// can be spawned after Close's wg.Wait has returned.
func (p *RandomizerPool) fillLocked() {
	if p.closed || p.filling || p.budget == 0 || len(p.buf) >= p.low {
		return
	}
	p.filling = true
	p.wg.Add(1)
	go p.fillLoop()
}

// fillLoop mints against the budget until it or the buffer's room runs
// out, or the pool closes.
func (p *RandomizerPool) fillLoop() {
	defer p.wg.Done()
	p.mu.Lock()
	for !p.closed && p.budget > 0 && len(p.buf) < cap(p.buf) {
		p.budget--
		p.inflight++
		rz := p.spareLocked()
		p.mu.Unlock()
		p.mint(rz)
		p.mu.Lock()
		p.inflight--
		p.buf = append(p.buf, rz)
		p.ready.Broadcast()
	}
	p.filling = false
	p.ready.Broadcast()
	p.mu.Unlock()
}
