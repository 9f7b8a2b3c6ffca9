package damgardjurik

import (
	"sync"
	"testing"
)

// pool_test.go pins what the RandomizerPool computes: exactly its
// provision ahead of use, nothing unprovisioned, and never one value
// twice. Every check waits on the filler's exit (wg.Wait), not on time.

// poolIdle reports whether no filler runs and none is owed work.
func poolIdle(p *RandomizerPool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.filling && p.inflight == 0
}

// TestRandomizerPoolProducesOnlyProvisioned: a pool provisioned k mints
// exactly k randomizers for k draws, whether its buffer holds them all
// or refills on the way, and draw k+1 is computed synchronously and
// counted as a miss.
func TestRandomizerPoolProducesOnlyProvisioned(t *testing.T) {
	_, ec := racePoolFixture(t)
	const k = 12
	for _, capacity := range []int{k + 4, 4} {
		pool := NewRandomizerPool(ec, capacity)
		pool.Provision(k)
		pool.wg.Wait()
		if minted, _ := pool.Stats(); minted != int64(min(k, capacity)) {
			t.Fatalf("capacity %d: the filler minted %d ahead of use, want %d", capacity, minted, min(k, capacity))
		}
		for i := 0; i < k; i++ {
			pool.Recycle(pool.Get())
		}
		pool.wg.Wait()
		if minted, misses := pool.Stats(); minted != k || misses != 0 || len(pool.buf) != 0 {
			t.Fatalf("capacity %d: %d draws against a provision of %d: minted %d, misses %d, %d buffered",
				capacity, k, k, minted, misses, len(pool.buf))
		}
		pool.Get()
		if !poolIdle(pool) {
			t.Fatalf("capacity %d: a draw past the provision started the filler", capacity)
		}
		if minted, misses := pool.Stats(); minted != k+1 || misses != 1 {
			t.Fatalf("capacity %d: draw %d: minted %d, misses %d; want a synchronous miss", capacity, k+1, minted, misses)
		}
		pool.Close()
	}
}

// TestRandomizerPoolUnprovisionedMintsNothingAhead: without a provision
// the pool computes nothing at construction or in the background; every
// draw is a synchronous miss.
func TestRandomizerPoolUnprovisionedMintsNothingAhead(t *testing.T) {
	_, ec := racePoolFixture(t)
	pool := NewRandomizerPool(ec, 8)
	defer pool.Close()
	if minted, _ := pool.Stats(); minted != 0 || !poolIdle(pool) {
		t.Fatalf("construction minted %d randomizers", minted)
	}
	for i := 1; i <= 5; i++ {
		pool.Get()
		pool.wg.Wait()
		if minted, misses := pool.Stats(); minted != int64(i) || misses != int64(i) || len(pool.buf) != 0 {
			t.Fatalf("after %d unprovisioned draws: minted %d, misses %d, %d buffered", i, minted, misses, len(pool.buf))
		}
	}
}

// TestRandomizerPoolNeverRepeats: no randomizer value is handed out
// twice across a few thousand draws by concurrent workers that recycle
// every one — from the filler, from synchronous draws inside the
// provision, and past it. Two ciphertexts refreshed with one value
// divide to (1+n)^(m1−m2), which anyone can open without a key share.
func TestRandomizerPoolNeverRepeats(t *testing.T) {
	_, ec := racePoolFixture(t)
	pool := NewRandomizerPool(ec, 64)
	defer pool.Close()
	const workers, perWorker = 4, 750
	pool.Provision(2000)
	seen := make([][]string, workers)
	var wg sync.WaitGroup
	for w := range seen {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rz := pool.Get()
				seen[w] = append(seen[w], string(rz.Bytes()))
				pool.Recycle(rz)
			}
		}(w)
	}
	wg.Wait()
	distinct := map[string]bool{}
	for _, vs := range seen {
		for _, v := range vs {
			if distinct[v] {
				t.Fatal("a randomizer value was handed out twice")
			}
			distinct[v] = true
		}
	}
	if len(distinct) != workers*perWorker {
		t.Fatalf("%d distinct randomizers, want %d", len(distinct), workers*perWorker)
	}
	if minted, misses := pool.Stats(); minted != workers*perWorker || misses != workers*perWorker-2000 {
		t.Fatalf("minted %d, misses %d for %d draws against a provision of 2000", minted, misses, workers*perWorker)
	}
}
