package main

import (
	"errors"
	"fmt"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/p2p"
)

// Step classes, by the kind byte (first byte of the encoded payload) of
// what the step sent: 0x02 decrypt request, 0x03 decrypt response, 0x01
// gossip. A step that sent several kinds takes the first class that
// applies in this order; a step that sent nothing is "other" (it
// assigned, encrypted, combined or idled).
const (
	stepGossip = iota
	stepDecryptAsk
	stepDecryptServe
	stepOther
	numStepClasses
)

var stepClassNames = [numStepClasses]string{"gossip", "decrypt-ask", "decrypt-serve", "other"}

// rawMsg is one encoded payload in flight between two driven nodes.
type rawMsg struct {
	from int
	raw  []byte
}

// driverStats is what one node-driver run measured (traced runs only).
type driverStats struct {
	stepSelfUS   [numStepClasses][]float64 // self time of each Step, by class
	encodeUS     []float64
	decodeUS     []float64
	gossipBytes  []float64 // encoded size of each gossip payload
	epochs       int
	payloadsSent int
}

// driverEnv is the benchmark's core.Env for one node in one epoch, with
// the simulator's visibility rule: what was sent at epoch e is in the
// inbox at e+1, ordered by ascending sender with per-sender FIFO.
type driverEnv struct {
	d      *nodeDriver
	id     int
	epoch  int
	inbox  []p2p.Message
	step   int // span of the Step in progress
	kinds  [4]bool
	sendEr error
}

func (e *driverEnv) ID() p2p.NodeID       { return p2p.NodeID(e.id) }
func (e *driverEnv) Cycle() int           { return e.epoch }
func (e *driverEnv) PopulationSize() int  { return len(e.d.nodes) }
func (e *driverEnv) AliveCount() int      { return len(e.d.nodes) }
func (e *driverEnv) Inbox() []p2p.Message { return e.inbox }

func (e *driverEnv) RandomPeer() (p2p.NodeID, bool) {
	id := e.d.tr.begin("p2p:Sampler.RandomPeer", e.step)
	p, ok := e.d.samplers[e.id].RandomPeer()
	e.d.tr.end(id)
	return p, ok
}

func (e *driverEnv) RandomPeers(k int) []p2p.NodeID {
	id := e.d.tr.begin("p2p:Sampler.RandomPeers", e.step)
	ps := e.d.samplers[e.id].RandomPeers(k)
	e.d.tr.end(id)
	return ps
}

// Send encodes the payload at once, as the transport does (the
// participant may reuse its buffers), and queues the bytes for the next
// epoch.
func (e *driverEnv) Send(to p2p.NodeID, payload any, bytes int) error {
	if int(to) < 0 || int(to) >= len(e.d.nodes) {
		return fmt.Errorf("bench: send to unknown peer %d", to)
	}
	id := e.d.tr.begin(spanEncode, e.step)
	raw, err := e.d.nodes[e.id].EncodePayload(payload)
	e.d.tr.end(id)
	if err != nil {
		e.sendEr = err
		return err
	}
	if k := raw[0]; k >= 1 && k <= 3 {
		e.kinds[k] = true
	}
	if raw[0] == 0x01 {
		e.d.gossipBytes = append(e.d.gossipBytes, float64(len(raw)))
	}
	e.d.sent++
	e.d.next[to] = append(e.d.next[to], rawMsg{from: e.id, raw: raw})
	return nil
}

func (e *driverEnv) class() int {
	switch {
	case e.kinds[2]:
		return stepDecryptAsk
	case e.kinds[3]:
		return stepDecryptServe
	case e.kinds[1]:
		return stepGossip
	}
	return stepOther
}

// nodeDriver steps K core.Nodes sequentially, every payload making the
// round trip through EncodePayload and DecodePayload. It is the
// benchmark's view inside a participant step: the transport hides the
// same calls behind sockets.
type nodeDriver struct {
	nodes    []*core.Node
	samplers []*p2p.Sampler
	cur      [][]rawMsg // visible this epoch, per destination
	next     [][]rawMsg // sent this epoch, per destination
	tr       *tracer

	stepSpans   [numStepClasses][]int // span IDs of the steps, by class
	gossipBytes []float64
	sent        int
	firstSpan   int // spans recorded before this driver ran belong to others
}

// newNodeDriver builds every participant of the run. On the
// Damgård–Jurik backend params.DJMaterial must hold the (dense) ceremony
// output.
func newNodeDriver(data [][]float64, params core.Params, tr *tracer) (*nodeDriver, error) {
	n := len(data)
	d := &nodeDriver{
		nodes:    make([]*core.Node, n),
		samplers: make([]*p2p.Sampler, n),
		cur:      make([][]rawMsg, n),
		next:     make([][]rawMsg, n),
		tr:       tr,
	}
	for id := 0; id < n; id++ {
		nd, err := core.NewNode(data, params, id)
		if err != nil {
			d.close()
			return nil, err
		}
		d.nodes[id] = nd
		d.samplers[id] = p2p.NewSampler(nd.SamplingSeed(), p2p.NodeID(id), n)
	}
	return d, nil
}

func (d *nodeDriver) close() {
	for _, nd := range d.nodes {
		if nd != nil {
			nd.Close()
		}
	}
}

// run drives epochs until every node is done and returns each node's
// history. parent is the span the epochs hang under.
func (d *nodeDriver) run(parent int) ([][]core.IterationResult, int, error) {
	limit := d.nodes[0].MaxCycles()
	if d.tr != nil {
		d.firstSpan = len(d.tr.spans)
	}
	for epoch := 0; epoch < limit; epoch++ {
		allDone := true
		for id, nd := range d.nodes {
			// Nodes step in ascending id, so each destination's queue is
			// already ordered by ascending sender, FIFO per sender.
			var inbox []p2p.Message
			for _, m := range d.cur[id] {
				sp := d.tr.begin(spanDecode, parent)
				payload, err := nd.DecodePayload(m.raw)
				d.tr.end(sp)
				if err != nil {
					return nil, epoch, fmt.Errorf("bench: node %d: payload from %d: %w", id, m.from, err)
				}
				inbox = append(inbox, p2p.Message{From: p2p.NodeID(m.from), Payload: payload, Bytes: len(m.raw)})
			}
			d.cur[id] = d.cur[id][:0]
			env := &driverEnv{d: d, id: id, epoch: epoch, inbox: inbox}
			env.step = d.tr.begin("core:Node.Step", parent)
			nd.Step(env)
			d.tr.end(env.step)
			if env.sendEr != nil {
				return nil, epoch, env.sendEr
			}
			if env.step != 0 {
				c := env.class()
				d.stepSpans[c] = append(d.stepSpans[c], env.step)
			}
			allDone = allDone && nd.Done()
		}
		d.cur, d.next = d.next, d.cur
		if allDone {
			hs := make([][]core.IterationResult, len(d.nodes))
			for id, nd := range d.nodes {
				hs[id] = nd.History()
			}
			return hs, epoch, nil
		}
	}
	return nil, limit, errors.New("bench: node driver: no termination within the cycle bound")
}

// stats reads the driver's measurements back out of the tracer's spans.
func (d *nodeDriver) stats(epochs int) *driverStats {
	st := &driverStats{epochs: epochs, payloadsSent: d.sent, gossipBytes: d.gossipBytes}
	if d.tr == nil {
		return st
	}
	// Every span of this run, and every child of one, was recorded from
	// firstSpan on.
	self := spanSelf(d.tr.spans[d.firstSpan:])
	for c := range d.stepSpans {
		for _, id := range d.stepSpans[c] {
			st.stepSelfUS[c] = append(st.stepSelfUS[c], float64(self[id-1-d.firstSpan])/1e3)
		}
	}
	st.encodeUS = d.tr.durationsUS(spanEncode, d.firstSpan)
	st.decodeUS = d.tr.durationsUS(spanDecode, d.firstSpan)
	return st
}
