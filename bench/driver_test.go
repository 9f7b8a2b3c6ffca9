package main

import (
	"bytes"
	"net"
	"sync"
	"testing"

	"chiaroscuro/internal/wire"
)

// TestNodeDriverMatchesSequentialReference: the trace is only evidence
// if the driver runs the real protocol, so its histories must equal
// core.RunSequentialHistories bit for bit, on the accounted backend and
// on 256-bit Damgård–Jurik, at K=5 nodes, with and without a tracer.
func TestNodeDriverMatchesSequentialReference(t *testing.T) {
	for _, shape := range []struct {
		name       string
		iterations int
		bits       int
	}{
		{"mesh-plain", 4, 0},
		{"mesh-dj", 2, 256},
	} {
		for _, traced := range []bool{false, true} {
			in, err := shapeInputs(shape.name, 5, shape.iterations, shape.bits, 11)
			if err != nil {
				t.Fatal(err)
			}
			var tr *tracer
			if traced {
				tr = newTracer(shape.name)
			}
			// driverProbe rejects any divergence from the reference.
			st, err := driverProbe(in, tr, 0)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", shape.name, traced, err)
			}
			if st.payloadsSent == 0 || st.epochs == 0 {
				t.Errorf("%s: driver moved %d payloads over %d epochs", shape.name, st.payloadsSent, st.epochs)
			}
			if !traced {
				continue
			}
			for c, name := range stepClassNames {
				if len(st.stepSelfUS[c]) == 0 {
					t.Errorf("%s: no %s step was traced", shape.name, name)
				}
			}
			if len(st.encodeUS) != st.payloadsSent || len(st.decodeUS) != st.payloadsSent {
				t.Errorf("%s: %d encode and %d decode spans for %d payloads", shape.name,
					len(st.encodeUS), len(st.decodeUS), st.payloadsSent)
			}
		}
	}
}

// TestConnWrappersCountFrameBytes: what the wrappers count is exactly
// the frame lengths handed to them, from the dialing and the accepting
// side, traced or not.
func TestConnWrappersCountFrameBytes(t *testing.T) {
	for _, traced := range []bool{false, true} {
		st := &connStats{}
		if traced {
			st.tr = newTracer("test")
		}
		ln, err := st.listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		frames := [][]byte{bytes.Repeat([]byte{1}, 10), bytes.Repeat([]byte{2}, 4096), {3}}
		var want int64
		for _, f := range frames {
			want += 2 * int64(4+len(f)) // each side sends every frame
		}
		send := func(c net.Conn) {
			for _, f := range frames {
				if err := wire.WriteFrame(c, f); err != nil {
					t.Error(err)
				}
			}
		}
		drain := func(c net.Conn) {
			for range frames {
				if _, err := wire.ReadFrame(c); err != nil {
					t.Error(err)
				}
			}
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := ln.Accept()
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			send(c)
			drain(c)
		}()
		c, err := st.dial("tcp", ln.Addr().String(), 0)
		if err != nil {
			t.Fatal(err)
		}
		drain(c)
		send(c)
		wg.Wait()
		c.Close()
		ln.Close()
		if got := st.bytes.Load(); got != want {
			t.Errorf("traced=%v: wrappers counted %d bytes, the frames sum to %d", traced, got, want)
		}
		// WriteFrame writes the header and the payload separately.
		if got, want := st.writes.Load(), int64(4*len(frames)); got != want {
			t.Errorf("traced=%v: %d writes, want %d", traced, got, want)
		}
		if traced && len(st.tr.durationsUS(spanConnWrite, 0)) != 4*len(frames) {
			t.Errorf("traced: %d write spans for %d writes", len(st.tr.spans), 4*len(frames))
		}
	}
}

// TestSelfTimeSubtractsTheUnionOfChildren pins the self-time rule on
// overlapping children (mesh nodes write concurrently).
func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Name: "child", Start: 10, End: 40, Parent: 1},
		{ID: 3, Name: "child", Start: 30, End: 60, Parent: 1},  // overlaps the first
		{ID: 4, Name: "child", Start: 90, End: 120, Parent: 1}, // runs past the parent
	}
	self := spanSelf(spans)
	if got := int64(self[0]); got != 100-50-10 {
		t.Errorf("parent self time %d, want 40", got)
	}
	rows := selfTimes(spans)
	if rows[0].name != "child" || rows[0].count != 3 || int64(rows[0].self) != 90 {
		t.Errorf("aggregate %+v, want 3 children with 90 of self time first", rows[0])
	}
}
