package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Start and End are nanoseconds since the
// tracer was created; Parent is the ID of the span that caused this one
// (0 for a root). Spans are recorded from the benchmark's own files only,
// around calls into the program's public functions.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"` // "<layer>:<operation>"
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
}

// Span names that are read back out of the tracer.
const (
	spanConnWrite = "transport:conn.Write"
	spanEncode    = "core:EncodePayload"
	spanDecode    = "core:DecodePayload"
)

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so timed repetitions pass nil and pay one pointer test.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// begin opens a span and returns its ID (0 from a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, Parent: parent, Workload: t.workload})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose boundaries were observed elsewhere (the mesh
// marks cut spans at log lines after the fact).
func (t *tracer) add(name string, start, end time.Time, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Start: int64(start.Sub(t.t0)),
		End: int64(end.Sub(t.t0)), Parent: parent, Workload: t.workload})
	t.mu.Unlock()
	return id
}

// setWorkload changes the workload stamped on subsequent spans: the node
// driver stamps the shape it replays.
func (t *tracer) setWorkload(w string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.workload = w
	t.mu.Unlock()
}

// durationsUS returns the durations, in µs, of the spans called name among
// those recorded from index from on.
func (t *tracer) durationsUS(name string, from int) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans[from:] {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeFile writes the spans to <dir>/trace-<workload>.jsonl.
func (t *tracer) writeFile(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := t.writeJSONL(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// selfTime is the aggregate of one span name.
type selfTime struct {
	name  string
	count int
	total time.Duration // sum of durations
	self  time.Duration // sum of durations minus the part children cover
}

// spanSelf returns every span's self time, in the order of spans: its duration
// minus the part its child spans cover. Children of one parent may
// overlap (mesh nodes write concurrently), so the covered part is the
// union of their intervals clipped to the parent.
func spanSelf(spans []span) []time.Duration {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// selfTimes aggregates durations and self times per span name, largest
// self time first.
func selfTimes(spans []span) []selfTime {
	self := spanSelf(spans)
	agg := map[string]*selfTime{}
	for i, s := range spans {
		a := agg[s.Name]
		if a == nil {
			a = &selfTime{name: s.Name}
			agg[s.Name] = a
		}
		a.count++
		a.total += time.Duration(s.End - s.Start)
		a.self += self[i]
	}
	out := make([]selfTime, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// printSelfTimes prints the per-layer self-time table.
func printSelfTimes(w io.Writer, rows []selfTime) {
	var sum time.Duration
	for _, r := range rows {
		sum += r.self
	}
	fmt.Fprintf(w, "  %-34s %9s %12s %12s %7s\n", "span", "count", "total ms", "self ms", "share")
	for _, r := range rows {
		share := 0.0
		if sum > 0 {
			share = float64(r.self) / float64(sum)
		}
		fmt.Fprintf(w, "  %-34s %9d %12.3f %12.3f %6.1f%%\n", r.name, r.count,
			float64(r.total)/1e6, float64(r.self)/1e6, 100*share)
	}
}
