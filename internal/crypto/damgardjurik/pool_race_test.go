package damgardjurik

import (
	"math/big"
	"sync"
	"testing"
)

// pool_race_test.go is the concurrency property suite of the
// RandomizerPool, designed to run under -race (CI does): many
// concurrent Encrypt/Rerandomize callers racing the background fill,
// each other over the shared provision, and Close must never panic,
// deadlock, produce an undecryptable ciphertext, or leave a filler
// goroutine behind.

func racePoolFixture(t *testing.T) (*PrivateKey, *EncContext) {
	t.Helper()
	sk, err := FixturePrivateKey(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := sk.PublicKey.NewEncContext(nil)
	if err != nil {
		t.Fatal(err)
	}
	return sk, ec
}

// TestRandomizerPoolConcurrentEncryptDecryptable: concurrent pooled
// encryptions interleaved with fills stay correct — every ciphertext
// decrypts to its plaintext — and the provision shared by the workers
// is minted exactly once.
func TestRandomizerPoolConcurrentEncryptDecryptable(t *testing.T) {
	sk, ec := racePoolFixture(t)
	pool := NewRandomizerPool(ec, 8)
	defer pool.Close()

	const workers, perWorker = 8, 40
	pool.Provision(workers * perWorker)
	type pair struct {
		m  int64
		ct *big.Int
	}
	results := make([][]pair, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m := int64(w*perWorker + i)
				ct, err := pool.Encrypt(big.NewInt(m))
				if err != nil {
					t.Errorf("worker %d: encrypt: %v", w, err)
					return
				}
				results[w] = append(results[w], pair{m: m, ct: ct})
			}
		}(w)
	}
	wg.Wait()
	for w, ps := range results {
		for _, p := range ps {
			got, err := sk.Decrypt(p.ct)
			if err != nil {
				t.Fatalf("worker %d plaintext %d: decrypt: %v", w, p.m, err)
			}
			if got.Int64() != p.m {
				t.Fatalf("worker %d: decrypted %v, want %d", w, got, p.m)
			}
		}
	}
	pool.Close()
	if minted, misses := pool.Stats(); minted != workers*perWorker || misses != 0 || len(pool.buf) != 0 {
		t.Fatalf("%d draws against an equal provision: minted %d, misses %d, %d left buffered",
			workers*perWorker, minted, misses, len(pool.buf))
	}
}

// TestRandomizerPoolCloseRacesEncrypters: Close fired mid-traffic.
// Callers that lose the race must degrade to synchronous randomizers,
// never error or panic, and Close must reap the filler (wg.Wait inside
// Close would hang this test otherwise).
func TestRandomizerPoolCloseRacesEncrypters(t *testing.T) {
	sk, ec := racePoolFixture(t)
	for round := 0; round < 6; round++ {
		pool := NewRandomizerPool(ec, 4)
		pool.Provision(6 * 25)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := 0; i < 25; i++ {
					m := big.NewInt(int64(i))
					ct, err := pool.Encrypt(m)
					if err != nil {
						t.Errorf("encrypt after close race: %v", err)
						return
					}
					if i == 0 && w == 0 {
						if got, err := sk.Decrypt(ct); err != nil || got.Int64() != 0 {
							t.Errorf("post-close ciphertext broken: %v %v", got, err)
						}
					}
				}
			}(w)
		}
		closer := make(chan struct{})
		go func() {
			<-start
			pool.Close()
			pool.Close() // idempotent under the same race
			close(closer)
		}()
		close(start)
		wg.Wait()
		<-closer
	}
}

// TestRandomizerPoolRefillCloseInterleaving hammers the fill
// spawn/Close handshake specifically: drain-to-empty (forcing fill
// spawns) while another goroutine closes, repeatedly.
func TestRandomizerPoolRefillCloseInterleaving(t *testing.T) {
	_, ec := racePoolFixture(t)
	for round := 0; round < 20; round++ {
		pool := NewRandomizerPool(ec, 2)
		pool.Provision(10)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				pool.Get()
			}
		}()
		go func() {
			defer wg.Done()
			pool.Close()
		}()
		wg.Wait()
		// After Close has returned no filler may be running: a Get must
		// still work (synchronously) and the pool must stay closed.
		if pool.Get() == nil {
			t.Fatal("get after close returned no randomizer")
		}
	}
}
