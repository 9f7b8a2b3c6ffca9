package transport

import (
	"fmt"
	"testing"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/crypto/damgardjurik"
	"chiaroscuro/internal/crypto/dkg"
)

// hostile_test.go scripts what a peer's link delivers to a bare node —
// an inbox, down links, no sockets — to hold the barrier and the key
// ceremony to what an honest peer can send.

// scriptedNode is node 0 of a population whose peers' frames are
// already waiting in its inbox, in order.
func scriptedNode(population int, timeout time.Duration, script ...inMsg) *node {
	n := &node{
		cfg:         Config{ID: 0, Population: population, EpochTimeout: timeout},
		links:       make([]*link, population),
		in:          make(chan inMsg, len(script)),
		keyPending:  map[int][]inMsg{},
		pendingData: map[int]map[int][][]byte{},
		ticks:       map[int]map[int]tick{},
		left:        map[int]bool{},
		consumed:    make([]uint64, population),
	}
	for id := 1; id < population; id++ {
		n.links[id] = newLink(n, id)
	}
	for _, m := range script {
		n.in <- m
	}
	return n
}

// TestBarrierRefusesFarFutureEpochs: a tick or data frame more than
// ringRetention() epochs past the barrier — the key ceremony's barrier
// is epoch 0 — is refused at once, before the barrier buffers file it;
// one exactly that far ahead is filed. Without checkpoints an honest
// peer is at most one epoch ahead; the bound leaves room for the peers
// of a node that resumed from the older of its two checkpoint slots.
func TestBarrierRefusesFarFutureEpochs(t *testing.T) {
	const timeout = 5 * time.Second
	ahead := (&Config{}).ringRetention() // 4: no checkpoints
	tickAt := func(epoch int) inMsg { return inMsg{from: 1, kind: mtTick, epoch: epoch, seq: 1} }
	dataAt := func(epoch int) inMsg { return inMsg{from: 1, kind: mtData, epoch: epoch, payload: []byte{1}, seq: 1} }
	keyFrame := inMsg{from: 1, kind: mtKey, epoch: keyRoundDeal, seq: 2}
	for _, tc := range []struct {
		name     string
		ceremony bool
		script   []inMsg
		err      string
	}{
		{"tick within", false, []inMsg{tickAt(3 + ahead), dataAt(3 + ahead), tickAt(3)}, ""},
		{"tick past", false, []inMsg{tickAt(4 + ahead)}, "transport: peer 1 sent epoch 8 at barrier 3, more than 4 epochs ahead"},
		{"data past", false, []inMsg{dataAt(4 + ahead)}, "transport: peer 1 sent epoch 8 at barrier 3, more than 4 epochs ahead"},
		{"ceremony within", true, []inMsg{tickAt(ahead), dataAt(ahead), keyFrame}, ""},
		{"ceremony tick past", true, []inMsg{tickAt(ahead + 1)}, "transport: peer 1 sent epoch 5 at barrier 0, more than 4 epochs ahead"},
		{"ceremony data past", true, []inMsg{dataAt(ahead + 1)}, "transport: peer 1 sent epoch 5 at barrier 0, more than 4 epochs ahead"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := scriptedNode(2, timeout, tc.script...)
			start := time.Now()
			var err error
			if tc.ceremony {
				err = n.collectKeyRound(keyRoundDeal, 1, func(int, []byte) error { return nil })
			} else {
				_, err = n.awaitBarrier(3, false)
			}
			if elapsed := time.Since(start); elapsed >= timeout {
				t.Fatalf("the barrier waited %v", elapsed)
			}
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Fatalf("error %v, want %q", err, tc.err)
				}
				if len(n.ticks)+len(n.pendingData)+len(n.backlog) != 0 {
					t.Fatalf("a refused frame was filed: %d tick epochs, %d data epochs, %d backlogged", len(n.ticks), len(n.pendingData), len(n.backlog))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.ceremony {
				if len(n.backlog) != 2 {
					t.Fatalf("%d frames backlogged, want 2", len(n.backlog))
				}
			} else if n.ticks[3+ahead] == nil || n.pendingData[3+ahead] == nil {
				t.Fatalf("the frames %d epochs ahead were not filed", ahead)
			}
		})
	}
}

// TestCeremonyRefusesImpersonatedArtifacts: in each round of the key
// ceremony, an artifact peer 1 sends in party 3's name (peer 2's) is
// refused, naming its sender, instead of filed for party 3 — whose own
// artifact the ceremony would then refuse as a duplicate, blaming
// party 3.
func TestCeremonyRefusesImpersonatedArtifacts(t *testing.T) {
	const population = 3
	params := core.Params{Backend: core.BackendDamgardJurik, DKG: true, ModulusBits: 128, Seed: 5}
	p := params.Defaulted(population)
	prime1, prime2, err := damgardjurik.FixturePrimes(p.ModulusBits)
	if err != nil {
		t.Fatal(err)
	}
	pieces, pk, err := dkg.GenesisPieces(prime1, prime2, p.Degree, population, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	// The honest deal of party i+1 to node 0, party 1.
	deal := func(i int) []byte {
		dn, err := dkg.NewNode(dkg.Config{
			PK: pk, Parties: population, Threshold: p.DecryptThreshold,
			Index: i + 1, Dealers: []int{1, 2, 3}, DealerIndex: i + 1, Secret: pieces[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		buf, err := dkg.MarshalDeal(dn.Deals()[0])
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	response := func(party int) []byte {
		buf, err := dkg.MarshalResponse(&dkg.Response{From: party, Verdicts: []dkg.DealerVerdict{{Dealer: 1}, {Dealer: 2}, {Dealer: 3}}})
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	justification := func(dealer int) []byte {
		buf, err := dkg.MarshalJustification(&dkg.Justification{Dealer: dealer})
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	seq := uint64(0)
	frame := func(from, round int, payload []byte) inMsg {
		seq++
		return inMsg{from: from, kind: mtKey, epoch: round, payload: payload, seq: seq}
	}
	honestDeals := []inMsg{frame(1, keyRoundDeal, deal(1)), frame(2, keyRoundDeal, deal(2))}
	honestResponses := []inMsg{frame(1, keyRoundResponse, response(2)), frame(2, keyRoundResponse, response(3))}
	for _, tc := range []struct {
		round  int
		script []inMsg
	}{
		{keyRoundDeal, []inMsg{frame(1, keyRoundDeal, deal(2)), frame(2, keyRoundDeal, deal(2))}},
		{keyRoundResponse, append(honestDeals[:2:2], frame(1, keyRoundResponse, response(3)), frame(2, keyRoundResponse, response(3)))},
		{keyRoundJustification, append(append(honestDeals[:2:2], honestResponses...),
			frame(1, keyRoundJustification, justification(3)), frame(2, keyRoundJustification, justification(3)))},
	} {
		n := scriptedNode(population, 5*time.Second, tc.script...)
		_, err := n.runCeremony(population, params)
		want := fmt.Sprintf("transport: peer 1 key-ceremony round %d: artifact authored by party 3, not by its sender's party 2", tc.round)
		if err == nil || err.Error() != want {
			t.Fatalf("round %d: %v, want %q", tc.round, err, want)
		}
	}
}
