package engine

import "p2pmss/internal/overlay"

// TCoP (§3.5): the tree-based coordination protocol. A selected peer
// runs a three-round handshake with its prospective children — control
// c1, confirmations cc1, commit c2 — and only confirmed children join
// the tree, so every peer ends with at most one parent. Beyond the
// paper, a parent whose control is refused, undeliverable, or unanswered
// within HandshakeTimeout retries alternate candidates with a doubled
// deadline, up to Retries peers; a child whose commit never arrives
// releases its adoption after CommitRelease.

// tcopSelect begins a handshake round: pick up to H prospective
// children from outside the view, send each a restricted-view control
// packet, and arm the confirmation deadline. cur is the data-plane
// snapshot the controls should advertise; effects are appended to effs.
func (p *Peer) tcopSelect(effs []Effect, round int, cur Snapshot) []Effect {
	wave, spares := overlay.SelectWithSparesInto(p.rng, p.view, p.cfg.H, p.selBuf, true)
	if wave != nil {
		p.selBuf = wave[:0] // recapture the (possibly regrown) scratch array
	}
	if len(wave) == 0 {
		return effs // view full: re-enhancement ends here
	}
	p.view.AddAll(wave)
	p.wanted = len(wave)
	p.outstanding = append(p.outstanding[:0], wave...)
	p.outstandingOpen = true
	p.candQueue = spares
	p.retryLeft = p.cfg.Retries
	p.confirmed = p.confirmed[:0]
	p.ctlRound = round
	p.final = false
	p.confirmDelay = p.cfg.HandshakeTimeout

	// c1 carries a restricted view — only the sender and the selected
	// children — so children's own selections overlap and the flooding
	// stays redundant (§3.5).
	rv := p.restrictedView(wave)
	for _, c := range wave {
		m := p.pl.msgControl()
		m.Parent = p.id
		m.View = append(m.View[:0], rv...)
		m.SeqOffset, m.Rate = cur.Offset, cur.Rate
		m.Children, m.Round = len(wave), round
		effs = append(effs, p.pl.send(c, m))
	}
	// Timer last: the simulator driver historically registered the
	// deadline after the sends, and effect order is driver-visible.
	return append(effs, p.pl.setTimer(TimerID{Kind: TimerConfirm, Gen: p.gen}, p.confirmDelay))
}

// tcopOnControl handles a prospective parent's c1: accept iff not yet
// transmitting and not already adopted (first parent wins, §3.5). A
// duplicated c1 from the peer's own adopted parent — a datagram network
// may deliver the control twice — is re-acknowledged with the same
// Accept verdict instead of a refusal: answering "no" to one's own
// parent lets a reordered duplicate refusal overtake the original
// acceptance and cost the child its slot. The re-ack does not re-arm
// the release deadline, so a parent that truly died still releases the
// adoption on schedule.
func (p *Peer) tcopOnControl(m *MsgControl) []Effect {
	p.viewAdd(p.id)
	p.viewAdd(m.Parent)
	p.viewAddAll(m.View)
	accept := !p.active && p.parent < 0
	redundant := !p.active && p.parent == int(m.Parent)
	effs := p.pl.slice()
	if accept {
		p.parent = int(m.Parent)
		// If the commit never arrives (parent crashed between rounds),
		// release the adoption so a later parent can take this peer.
		// Registered before the send to preserve the simulator's
		// RNG-draw order.
		p.relGen++
		effs = append(effs, p.pl.setTimer(
			TimerID{Kind: TimerRelease, Gen: p.relGen, Peer: m.Parent},
			p.cfg.CommitRelease,
		))
	}
	cm := p.pl.msgConfirm()
	cm.Child, cm.Accept, cm.Round = p.id, accept || redundant, m.Round+1
	return append(effs, p.pl.send(m.Parent, cm))
}

// tcopOnConfirm handles a child's cc1. Refusals pull an alternate
// candidate when the retry budget allows; otherwise the round completes
// with whoever confirmed.
func (p *Peer) tcopOnConfirm(m *MsgConfirm, snap Snapshot) []Effect {
	if p.final || !p.outstandingOpen || !p.outstandingDrop(m.Child) {
		return nil // stale round or duplicate
	}
	if m.Accept {
		p.confirmed = append(p.confirmed, m.Child)
		return p.maybeFinalize(nil, snap)
	}
	if repl, ok := p.pullAlternate(); ok {
		p.outstanding = append(p.outstanding, repl)
		effs := p.pl.slice()
		return append(effs, p.pl.send(repl, p.retryControl(snap, repl)))
	}
	return p.maybeFinalize(nil, snap)
}

// pullAlternate draws the next failover candidate, spending one retry.
func (p *Peer) pullAlternate() (PeerID, bool) {
	if p.final || p.retryLeft <= 0 || len(p.candQueue) == 0 {
		return 0, false
	}
	repl := p.candQueue[0]
	p.candQueue = p.candQueue[1:]
	p.retryLeft--
	p.retried++
	return repl, true
}

// retryControl builds the c1 for a failover candidate: same round and
// child count as the original wave, view restricted to sender+candidate.
func (p *Peer) retryControl(snap Snapshot, repl PeerID) *MsgControl {
	p.viewAdd(repl)
	p.one[0] = repl
	rv := p.restrictedView(p.one[:])
	m := p.pl.msgControl()
	m.Parent = p.id
	m.View = append(m.View[:0], rv...)
	m.SeqOffset, m.Rate = snap.Offset, snap.Rate
	m.Children, m.Round = p.wanted, p.ctlRound
	return m
}

// maybeFinalize closes the handshake round once every outstanding
// control has been answered and no further retry could raise the count.
func (p *Peer) maybeFinalize(effs []Effect, snap Snapshot) []Effect {
	if p.final || !p.outstandingOpen || len(p.outstanding) > 0 {
		return effs
	}
	if len(p.confirmed) >= p.wanted || len(p.candQueue) == 0 || p.retryLeft <= 0 {
		return p.tcopFinalize(effs, snap)
	}
	return effs
}

// tcopOnConfirmTimeout fires the confirmation deadline: silent children
// are written off, and either a retry wave of alternates goes out with
// a doubled deadline, or the round finalizes with the confirmations in
// hand.
func (p *Peer) tcopOnConfirmTimeout(id TimerID, snap Snapshot) []Effect {
	if id.Gen != p.gen || p.final || !p.outstandingOpen {
		return nil
	}
	need := len(p.outstanding)
	p.outstanding = p.outstanding[:0]
	for i := 0; i < need; i++ {
		repl, ok := p.pullAlternate()
		if !ok {
			break
		}
		p.outstanding = append(p.outstanding, repl)
	}
	if len(p.outstanding) == 0 {
		return p.tcopFinalize(nil, snap)
	}
	p.gen++
	p.confirmDelay *= 2
	effs := p.pl.slice()
	for _, repl := range p.outstanding {
		effs = append(effs, p.pl.send(repl, p.retryControl(snap, repl)))
	}
	return append(effs, p.pl.setTimer(TimerID{Kind: TimerConfirm, Gen: p.gen}, p.confirmDelay))
}

// tcopFinalize closes the round: divide the remaining stream into
// c2.n = confirmed+1 parts with parity interval c2.n, commit each
// confirmed child its part, and hand off own transmission to part 0.
func (p *Peer) tcopFinalize(effs []Effect, snap Snapshot) []Effect {
	if p.final {
		return effs
	}
	p.final = true
	p.outstandingOpen = false
	p.outstanding = p.outstanding[:0]
	p.gen++ // invalidate any in-flight confirmation deadline
	if len(p.confirmed) == 0 {
		return effs
	}
	k := len(p.confirmed) + 1
	mark := MarkOffset(snap.Offset, p.cfg.MarkDelta, snap.Rate)
	parts, rate := ShareOut(snap.Seq(), mark, snap.Rate, k, k)
	if effs == nil {
		effs = p.pl.slice()
	}
	for i, c := range p.confirmed {
		assigned := seqAt(parts, i+1)
		p.noteShare(c, assigned, rate)
		m := p.pl.msgCommit()
		m.Parent, m.Streams, m.SeqOffset = p.id, k, snap.Offset
		m.Rate, m.ChildIdx = rate, i+1
		m.AssignedSeq, m.Round = assigned, p.ctlRound+2
		effs = append(effs, p.pl.send(c, m))
	}
	keep, given := SplitParts(parts)
	return append(effs, p.pl.handoff(keep, given, snap.Rate, rate, mark))
}

// tcopOnCommit handles the parent's c2: adopt the assignment, start
// transmitting, and open the next handshake round toward the unknown
// part of the view. A commit is stale if the peer already transmits or
// has since been adopted by a different parent.
func (p *Peer) tcopOnCommit(m *MsgCommit, snap Snapshot) []Effect {
	if p.active || (p.parent >= 0 && p.parent != int(m.Parent)) {
		return nil
	}
	p.parent = int(m.Parent)
	p.committed = true
	p.noteActivated(m.Round, m.AssignedSeq)
	effs := p.pl.slice()
	effs = append(effs, p.pl.activate(m.AssignedSeq, m.Rate, m.Round))
	return p.tcopSelect(effs, m.Round+1, Snapshot{Stream: m.AssignedSeq, Rate: m.Rate})
}
