package chiaroscuro_test

import (
	"fmt"
	"log"

	"chiaroscuro"
)

// ExampleCluster is the library quick start: generate a synthetic
// electricity-consumption workload, normalize it into the bounded domain
// the privacy analysis requires, and run the full privacy-preserving
// clustering protocol on the simulated network.
func ExampleCluster() {
	series, _, _ := chiaroscuro.SyntheticCER(300, 24, 42)
	if _, _, err := chiaroscuro.Normalize01(series); err != nil {
		log.Fatal(err)
	}
	res, err := chiaroscuro.Cluster(series, chiaroscuro.Config{
		K:          4,
		Epsilon:    5,
		Iterations: 4,
		Seed:       42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiles disclosed: %d\n", len(res.Centroids))
	fmt.Printf("participants assigned: %d\n", len(res.Assignments))
	fmt.Printf("privacy disclosures: %d (budget fully spent: %v)\n",
		res.Privacy.Disclosures, res.Privacy.EpsilonSpent == res.Privacy.EpsilonBudget)
	// Output:
	// profiles disclosed: 4
	// participants assigned: 300
	// privacy disclosures: 4 (budget fully spent: true)
}

// ExampleCluster_damgardJurikBackend runs the protocol with real
// threshold Damgård–Jurik encryption instead of the accounted plaintext
// backend: every aggregate is genuinely encrypted, gossiped, and opened
// by collaborative decryption (4 partial decryptions here). The
// homomorphic arithmetic runs on the package's precomputed fast paths
// (fixed-base encryption, pooled rerandomization — see
// docs/CRYPTO.md), which is what makes even this small end-to-end run
// quick. Key sizing: 128-bit fixture modulus for
// example speed; docs/CRYPTO.md and the README discuss the
// Backend/ModulusBits/Degree trade-offs for real use.
func ExampleCluster_damgardJurikBackend() {
	series, _, _ := chiaroscuro.SyntheticTumorGrowth(16, 10, 1)
	if _, _, err := chiaroscuro.Normalize01(series); err != nil {
		log.Fatal(err)
	}
	res, err := chiaroscuro.Cluster(series, chiaroscuro.Config{
		K: 2, Epsilon: 100, Iterations: 2, Seed: 7,
		Backend:     chiaroscuro.BackendDamgardJurik,
		ModulusBits: 128, Degree: 1,
		DecryptThreshold: 4, GossipRounds: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiles disclosed: %d\n", len(res.Centroids))
	fmt.Printf("participants assigned: %d\n", len(res.Assignments))
	fmt.Printf("real encryptions happened: %v\n", res.Crypto.Encrypts > 0)
	fmt.Printf("collaborative decryptions happened: %v\n", res.Crypto.Combines > 0)
	// Output:
	// profiles disclosed: 2
	// participants assigned: 16
	// real encryptions happened: true
	// collaborative decryptions happened: true
}

// ExampleCluster_shardedEngine shows the deterministic parallel engine:
// Engine "sharded" partitions the participants across Workers shard
// workers and merges their message queues through a deterministic
// reduction, so the whole trace — every disclosed centroid of every
// iteration — is bit-identical to the sequential "cycles" engine, at any
// worker count. Large reproducible experiments should use it: same
// results, wall-clock divided by the available cores.
func ExampleCluster_shardedEngine() {
	series, _, _ := chiaroscuro.SyntheticCER(300, 24, 42)
	if _, _, err := chiaroscuro.Normalize01(series); err != nil {
		log.Fatal(err)
	}
	cfg := chiaroscuro.Config{K: 4, Epsilon: 5, Iterations: 4, Seed: 42}

	sequential, err := chiaroscuro.Cluster(series, cfg)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Engine = "sharded"
	cfg.Workers = 8
	sharded, err := chiaroscuro.Cluster(series, cfg)
	if err != nil {
		log.Fatal(err)
	}

	identical := true
	for j := range sequential.Centroids {
		for t := range sequential.Centroids[j] {
			if sequential.Centroids[j][t] != sharded.Centroids[j][t] {
				identical = false
			}
		}
	}
	fmt.Printf("engines: cycles vs sharded (8 workers)\n")
	fmt.Printf("final centroids bit-identical: %v\n", identical)
	fmt.Printf("same message count: %v\n",
		sequential.Network.MessagesSent == sharded.Network.MessagesSent)
	// Output:
	// engines: cycles vs sharded (8 workers)
	// final centroids bit-identical: true
	// same message count: true
}
