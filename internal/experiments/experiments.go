// Package experiments implements the reproduction harness: one function
// per experiment of the registry (E1–E11 and E13), each regenerating the
// corresponding artefact of the demonstration paper — the Fig. 3 panels,
// the quality-vs-centralized comparison, the cost measures, and the
// gossip/churn/scaling behaviours the demo narrates.
//
// Each experiment returns a Table that cmd/expdriver prints as markdown
// and that experiments_test.go regenerates at a tiny scale.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one experiment's result in paper-table form.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Markdown renders the table as GitHub-flavoured markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	b.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if len(t.Notes) > 0 {
		b.WriteString("\n")
		for _, n := range t.Notes {
			b.WriteString("> " + n + "\n")
		}
	}
	return b.String()
}

// Scale reduces experiment sizes for quick runs.
type Scale struct {
	// Population is the simulated population for protocol runs.
	Population int
	// Iterations is the number of k-means iterations.
	Iterations int
	// Repeats averages stochastic metrics over this many seeds.
	Repeats int
}

// Full is the scale of a plain `go run ./cmd/expdriver`.
var Full = Scale{Population: 500, Iterations: 6, Repeats: 2}

// Quick is the scale of `expdriver -quick` smoke runs.
var Quick = Scale{Population: 200, Iterations: 4, Repeats: 1}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
func e2(v float64) string { return fmt.Sprintf("%.2e", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }
