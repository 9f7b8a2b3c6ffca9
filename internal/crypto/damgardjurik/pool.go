package damgardjurik

import (
	"io"
	"math/big"
	"sync"
	"sync/atomic"
)

// RandomizerPool keeps a buffer of precomputed encryption randomizers
// (H^α values from an EncContext) so that hot-path Rerandomize and
// Encrypt calls reduce to a channel receive plus one modular
// multiplication. When the buffer drains below half capacity, a single
// background filler goroutine tops it up and exits; the pool never keeps
// a goroutine alive while idle and full. A Get on an empty pool computes
// the randomizer synchronously (never blocks on the filler).
//
// The pool is safe for concurrent use by parallel shard workers; a
// caller-supplied rnd is serialized behind an internal lock, since the
// background filler and synchronous Get misses read it from different
// goroutines. Close stops any in-flight refill; using the pool after
// Close computes synchronously (still correct, just unpooled).
type RandomizerPool struct {
	ctx *EncContext
	rnd io.Reader // nil = crypto/rand.Reader

	ch      chan *big.Int
	low     int
	mu      sync.Mutex // serializes refill-spawn against Close
	filling atomic.Bool
	closed  atomic.Bool
	done    chan struct{}
	wg      sync.WaitGroup

	hits   atomic.Int64
	misses atomic.Int64
}

// NewRandomizerPool builds a pool of the given capacity over ctx and
// pre-fills it in the background. rnd supplies every α (crypto/rand if
// nil; other readers need not be thread-safe — the pool locks around
// every read). Capacity is clamped to at least 1.
func NewRandomizerPool(ctx *EncContext, capacity int, rnd io.Reader) *RandomizerPool {
	if capacity < 1 {
		capacity = 1
	}
	if rnd != nil {
		rnd = &lockedReader{r: rnd}
	}
	p := &RandomizerPool{
		ctx:  ctx,
		rnd:  rnd,
		ch:   make(chan *big.Int, capacity),
		low:  (capacity + 1) / 2,
		done: make(chan struct{}),
	}
	p.refill()
	return p
}

// lockedReader serializes a non-thread-safe io.Reader shared between
// the filler goroutine and synchronous pool misses.
type lockedReader struct {
	mu sync.Mutex
	r  io.Reader
}

func (l *lockedReader) Read(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Read(b)
}

// Get returns a fresh randomizer, preferring the precomputed buffer.
func (p *RandomizerPool) Get() (*big.Int, error) {
	select {
	case rz := <-p.ch:
		p.hits.Add(1)
		if len(p.ch) < p.low {
			p.refill()
		}
		return rz, nil
	default:
		p.misses.Add(1)
		p.refill()
		return p.ctx.Randomizer(p.rnd)
	}
}

// Rerandomize refreshes c with a pooled randomizer: c · H^α mod n^{s+1}.
func (p *RandomizerPool) Rerandomize(c *big.Int) (*big.Int, error) {
	if err := p.ctx.pk.CheckCiphertext(c); err != nil {
		return nil, err
	}
	rz, err := p.Get()
	if err != nil {
		return nil, err
	}
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
	rz, err := p.Get()
	if err != nil {
		return nil, err
	}
	pk := p.ctx.pk
	mm := getInt()
	mm.Mod(m, pk.ns)
	c := pk.powOnePlusN(mm)
	putInt(mm)
	c.Mul(c, rz)
	return c.Mod(c, pk.ns1), nil
}

// Stats reports pooled (hits) versus synchronously computed (misses)
// randomizer draws; surfaced by the cost instrumentation.
func (p *RandomizerPool) Stats() (hits, misses int64) {
	return p.hits.Load(), p.misses.Load()
}

// Close stops the background refill. Idempotent.
func (p *RandomizerPool) Close() {
	p.mu.Lock()
	if p.closed.CompareAndSwap(false, true) {
		close(p.done)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// refill starts the single background filler unless one is already
// running or the pool is closed. The mutex makes the closed-check and
// wg.Add atomic with respect to Close, so no filler can be spawned
// after Close's wg.Wait has returned.
func (p *RandomizerPool) refill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() || !p.filling.CompareAndSwap(false, true) {
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer p.filling.Store(false)
		for {
			select {
			case <-p.done:
				return
			default:
			}
			rz, err := p.ctx.Randomizer(p.rnd)
			if err != nil {
				return // rng failure: degrade to synchronous Gets
			}
			select {
			case p.ch <- rz:
			case <-p.done:
				return
			default:
				return // full
			}
		}
	}()
}
