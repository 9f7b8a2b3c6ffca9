package damgardjurik_test

import (
	"fmt"
	"log"
	"math/big"

	"chiaroscuro/internal/crypto/damgardjurik"
)

// Example walks the scheme end to end the way Chiaroscuro uses it: a
// trusted dealer shares a threshold key among 5 parties (any 3 can
// decrypt), values are encrypted and aggregated homomorphically, and a
// quorum opens only the aggregate — never an individual contribution.
func Example() {
	// Fixture safe primes keep the example instant; never use them for
	// real secrets.
	tk, shares, err := damgardjurik.FixtureThresholdKey(128, 1, 5, 3)
	if err != nil {
		log.Fatal(err)
	}

	// Three parties encrypt their private values...
	contributions := []int64{120, 250, 30}
	var sum *big.Int
	for _, v := range contributions {
		c, err := tk.Encrypt(nil, big.NewInt(v))
		if err != nil {
			log.Fatal(err)
		}
		if sum == nil {
			sum = c
		} else if sum, err = tk.Add(sum, c); err != nil {
			log.Fatal(err)
		}
	}

	// ...and any 3 of the 5 share holders decrypt the aggregate.
	parts := make([]damgardjurik.PartialDecryption, 0, 3)
	for _, idx := range []int{1, 3, 5} {
		pd, err := tk.PartialDecrypt(shares[idx-1], sum)
		if err != nil {
			log.Fatal(err)
		}
		parts = append(parts, pd)
	}
	m, err := tk.Combine(parts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("aggregate:", m)
	// Output:
	// aggregate: 400
}

// ExamplePublicKey_ScalarMul shows the homomorphic operations the gossip
// layer relies on: E(a)·E(b) = E(a+b) and E(a)^k = E(k·a).
func ExamplePublicKey_ScalarMul() {
	sk, err := damgardjurik.FixturePrivateKey(128, 1)
	if err != nil {
		log.Fatal(err)
	}
	pk := &sk.PublicKey
	c, _ := pk.Encrypt(nil, big.NewInt(21))
	doubled, err := pk.ScalarMul(c, big.NewInt(2))
	if err != nil {
		log.Fatal(err)
	}
	m, _ := sk.Decrypt(doubled)
	fmt.Println("2 × 21 =", m)
	// Output:
	// 2 × 21 = 42
}

// ExamplePublicKey_NewEncContext demonstrates the precomputed fast
// path: ciphertexts encrypted through an EncContext's pool (fixed-base
// windowed table, short exponent) are drop-in compatible with naive
// ones — they decrypt identically and mix homomorphically. An
// unprovisioned pool computes each randomizer when it is drawn.
func ExamplePublicKey_NewEncContext() {
	sk, err := damgardjurik.FixturePrivateKey(128, 1)
	if err != nil {
		log.Fatal(err)
	}
	pk := &sk.PublicKey
	ec, err := pk.NewEncContext(nil)
	if err != nil {
		log.Fatal(err)
	}
	fast, _ := damgardjurik.NewRandomizerPool(ec, 1).Encrypt(big.NewInt(19))
	naive, _ := pk.Encrypt(nil, big.NewInt(23))
	sum, err := pk.Add(fast, naive)
	if err != nil {
		log.Fatal(err)
	}
	m, _ := sk.Decrypt(sum)
	fmt.Println("fast + naive =", m)
	// Output:
	// fast + naive = 42
}

// ExampleRandomizerPool shows pooled rerandomization — the hot-path
// refresh the gossip exchange applies so ciphertexts cannot be traced
// across hops. The pool mints only what it is provisioned for: here
// one randomizer, minted in the background ahead of the refresh.
func ExampleRandomizerPool() {
	sk, err := damgardjurik.FixturePrivateKey(128, 1)
	if err != nil {
		log.Fatal(err)
	}
	pk := &sk.PublicKey
	ec, err := pk.NewEncContext(nil)
	if err != nil {
		log.Fatal(err)
	}
	pool := damgardjurik.NewRandomizerPool(ec, 16)
	defer pool.Close()
	pool.Provision(1)

	c, _ := pk.Encrypt(nil, big.NewInt(7))
	refreshed, err := pool.Rerandomize(c)
	if err != nil {
		log.Fatal(err)
	}
	m, _ := sk.Decrypt(refreshed)
	fmt.Println("ciphertext changed:", refreshed.Cmp(c) != 0)
	fmt.Println("plaintext preserved:", m)
	// Output:
	// ciphertext changed: true
	// plaintext preserved: 7
}
