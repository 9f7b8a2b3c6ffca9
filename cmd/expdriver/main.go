// Command expdriver regenerates every experiment table (the
// reproduction of the paper's figures and claims; -h lists the
// experiment ids, README.md "Reproducing the paper's experiments" says
// what each one shows).
//
// Usage:
//
//	go run ./cmd/expdriver            # all experiments, full scale
//	go run ./cmd/expdriver -exp E4    # one experiment
//	go run ./cmd/expdriver -quick     # reduced sizes (smoke run)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"chiaroscuro/internal/experiments"
)

// experimentIDs derives the -exp usage string from the registry, so the
// flag help can never go stale when an experiment is added.
func experimentIDs() string {
	var ids []string
	for _, e := range experiments.Registry() {
		ids = append(ids, e.ID)
	}
	return strings.Join(ids, ", ")
}

func main() {
	exp := flag.String("exp", "", "run a single experiment by id ("+experimentIDs()+")")
	quick := flag.Bool("quick", false, "reduced population/iterations for a fast smoke run")
	pop := flag.Int("population", 0, "override the simulated population")
	flag.Parse()

	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}
	if *pop > 0 {
		scale.Population = *pop
	}

	run := func(id string, r experiments.Runner) {
		start := time.Now()
		table, err := r(scale)
		if err != nil {
			log.Fatalf("%s: %v", id, err)
		}
		fmt.Println(table.Markdown())
		fmt.Fprintf(os.Stderr, "[%s done in %s]\n", id, time.Since(start).Round(time.Millisecond))
	}

	if *exp != "" {
		r, err := experiments.ByID(*exp)
		if err != nil {
			log.Fatal(err)
		}
		run(*exp, r)
		return
	}
	for _, e := range experiments.Registry() {
		run(e.ID, e.Run)
	}
}
