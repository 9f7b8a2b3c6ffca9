package transport

import (
	"fmt"
	"time"

	"chiaroscuro/internal/core"
	"chiaroscuro/internal/crypto/damgardjurik"
	"chiaroscuro/internal/crypto/dkg"
)

// ceremony.go runs the distributed key ceremony over the freshly formed
// mesh: each daemon drives one dkg.Node state machine through the three
// broadcast rounds (deal, response, justification), exchanging the dkg
// package's wire artifacts inside round-tagged mtKey frames, and walks
// away holding only its own key share (core.DJMaterialFromResult). The
// decryption exponent never exists in any single process.
//
// The networked path is the fault-free one: a disqualification verdict
// fails the run instead of restarting it (the scripted-byzantine
// restart loop lives in core.RunDJKeyCeremony, exercised by the
// in-process engines). Coefficient randomness comes from crypto/rand —
// decryptions are exact, so key provenance never reaches the disclosed
// histories, which is what keeps daemon runs bit-identical to the
// sequential reference regardless of the entropy behind the shares.

// runCeremony executes the fresh DKG among the whole population and
// returns this process's sparse key material. Peers progress at their
// own pace: artifacts from rounds we have not reached yet are parked in
// keyPending, and epoch-0 traffic from peers that already finished the
// ceremony is parked in n.backlog for awaitBarrier to replay.
func (n *node) runCeremony(population int, params core.Params) (*core.DJKeyMaterial, error) {
	p := params.Defaulted(population)
	prime1, prime2, err := damgardjurik.FixturePrimes(p.ModulusBits)
	if err != nil {
		return nil, err
	}
	// Every process derives the same additive genesis split from the
	// shared run configuration and deals its own piece.
	pieces, pk, err := dkg.GenesisPieces(prime1, prime2, p.Degree, population, p.Seed)
	if err != nil {
		return nil, err
	}
	dealers := make([]int, population)
	for i := range dealers {
		dealers[i] = i + 1
	}
	dn, err := dkg.NewNode(dkg.Config{
		PK:          pk,
		Parties:     population,
		Threshold:   p.DecryptThreshold,
		Index:       n.cfg.ID + 1,
		Dealers:     dealers,
		DealerIndex: n.cfg.ID + 1,
		Secret:      pieces[n.cfg.ID],
	})
	if err != nil {
		return nil, err
	}

	// Round 1 — deals travel point to point: each receiver gets its own
	// polynomial evaluation. The self-deal takes the same HandleDeal
	// validation path the remote ones do.
	for j, d := range dn.Deals() {
		if j == n.cfg.ID {
			if err := dn.HandleDeal(d); err != nil {
				return nil, err
			}
			continue
		}
		buf, err := dkg.MarshalDeal(d)
		if err != nil {
			return nil, err
		}
		if err := n.links[j].send(0, marshalKey(keyRoundDeal, buf)); err != nil {
			return nil, fmt.Errorf("transport: deal to peer %d: %w", j, err)
		}
	}
	if err := n.collectKeyRound(keyRoundDeal, population-1, func(from int, payload []byte) error {
		d, err := dkg.UnmarshalDeal(payload)
		if err != nil {
			return err
		}
		if err := authored(from, d.Dealer); err != nil {
			return err
		}
		return dn.HandleDeal(d)
	}); err != nil {
		return nil, err
	}

	// Round 2 — broadcast verdicts; Response() records our own.
	if err := n.broadcastKey(keyRoundResponse, func() ([]byte, error) {
		return dkg.MarshalResponse(dn.Response())
	}); err != nil {
		return nil, err
	}
	if err := n.collectKeyRound(keyRoundResponse, population-1, func(from int, payload []byte) error {
		r, err := dkg.UnmarshalResponse(payload)
		if err != nil {
			return err
		}
		if err := authored(from, r.From); err != nil {
			return err
		}
		return dn.HandleResponse(r)
	}); err != nil {
		return nil, err
	}

	// Round 3 — broadcast justifications; every node sends one (empty
	// unless accused) so the phase is one frame per peer.
	if err := n.broadcastKey(keyRoundJustification, func() ([]byte, error) {
		just, err := dn.Justification()
		if err != nil {
			return nil, err
		}
		if err := dn.HandleJustification(just); err != nil {
			return nil, err
		}
		return dkg.MarshalJustification(just)
	}); err != nil {
		return nil, err
	}
	if err := n.collectKeyRound(keyRoundJustification, population-1, func(from int, payload []byte) error {
		j, err := dkg.UnmarshalJustification(payload)
		if err != nil {
			return err
		}
		if j.Dealer != 0 { // an empty one is every non-dealer's filler
			if err := authored(from, j.Dealer); err != nil {
				return err
			}
		}
		return dn.HandleJustification(j)
	}); err != nil {
		return nil, err
	}

	res, err := dn.Finish()
	if err != nil {
		return nil, fmt.Errorf("transport: key ceremony: %w", err)
	}
	n.cfg.logf("node %d holds key share %d (qualified dealers: %v)", n.cfg.ID, n.cfg.ID+1, res.Qualified)
	return core.DJMaterialFromResult(res)
}

// authored refuses a ceremony artifact whose author is not the peer
// whose link carried it (party index = peer id + 1): dkg refuses a
// second artifact by its claimed author, so a peer could otherwise file
// one in another party's name and have the ceremony fail blaming that
// party.
func authored(from, author int) error {
	if author != from+1 {
		return fmt.Errorf("artifact authored by party %d, not by its sender's party %d", author, from+1)
	}
	return nil
}

// broadcastKey marshals one ceremony artifact and writes it to every
// peer inside a round-tagged key frame.
func (n *node) broadcastKey(round int, marshal func() ([]byte, error)) error {
	buf, err := marshal()
	if err != nil {
		return err
	}
	frame := marshalKey(round, buf)
	for id, l := range n.links {
		if l == nil {
			continue
		}
		if err := l.send(0, frame); err != nil {
			return fmt.Errorf("transport: key-ceremony round %d to peer %d: %w", round, id, err)
		}
	}
	return nil
}

// collectKeyRound gathers `want` artifacts of the given ceremony round,
// handing each to handle with its sender: parked frames first, then the
// shared inbox. Frames from later rounds are parked for their own
// collection pass; epoch traffic from peers already past the ceremony
// goes to the backlog (preserving per-sender FIFO order for
// awaitBarrier) unless it is too far ahead of barrier 0 (refuseAhead);
// a bye takes its link down; a replayed earlier round fails the
// ceremony.
func (n *node) collectKeyRound(round, want int, handle func(from int, payload []byte) error) error {
	for _, m := range n.keyPending[round] {
		if err := handle(m.from, m.payload); err != nil {
			return fmt.Errorf("transport: peer %d key-ceremony round %d: %w", m.from, round, err)
		}
		want--
	}
	delete(n.keyPending, round)
	timeout := time.NewTimer(n.cfg.EpochTimeout)
	defer timeout.Stop()
	for want > 0 {
		var m inMsg
		select {
		case m = <-n.in:
		case err := <-n.rejected:
			return err
		case <-timeout.C:
			return fmt.Errorf("transport: key-ceremony round %d timed out after %v (%d artifacts missing)", round, n.cfg.EpochTimeout, want)
		}
		if m.err != nil {
			return fmt.Errorf("transport: peer %d connection failed during key ceremony: %w", m.from, m.err)
		}
		switch m.kind {
		case mtKey:
			// Frames arrive in each peer's order, so the last one read is
			// the peer's last ceremony frame: what epoch 0 consumed.
			n.consumed[m.from] = m.seq
			switch {
			case m.epoch == round: // epoch slot carries the round tag
				if err := handle(m.from, m.payload); err != nil {
					return fmt.Errorf("transport: peer %d key-ceremony round %d: %w", m.from, round, err)
				}
				want--
			case m.epoch > round:
				n.keyPending[m.epoch] = append(n.keyPending[m.epoch], m)
			default:
				return fmt.Errorf("transport: peer %d replayed key-ceremony round %d", m.from, m.epoch)
			}
		case mtTick, mtData:
			if err := n.refuseAhead(m, 0); err != nil {
				return err
			}
			n.backlog = append(n.backlog, m)
		case mtBye:
			// Only an interrupted peer says bye this early, and it is
			// interrupted only once its own ceremony is over: its frames
			// all came before the bye. Its link goes down, and the first
			// barrier waits for it as for any down link.
			n.links[m.from].dropLeft()
		}
	}
	return nil
}
