package engine

import (
	"p2pmss/internal/overlay"
	"p2pmss/internal/seq"
)

// DCoP (§3.4): the redundant-flooding coordination protocol. Controls
// go out without a handshake; a peer selected by several parents merges
// the redundant assignments (pkt_i := pkt_i ∪ pkt_ji) and the flooding
// ends when views fill. The §3.3 fanout cap — at most H children over a
// parent's lifetime — bounds the per-peer coordination load.

// seqAt indexes a ShareOut parts slice that may be nil in
// control-plane-only mode.
func seqAt(parts []seq.Sequence, i int) seq.Sequence {
	if i < len(parts) {
		return parts[i]
	}
	return nil
}

// assignKey identifies one share assignment a parent issued to this
// peer. A DCoP parent never issues the same (round, child-index) slot
// twice — dcopSelect only ever picks children outside its view — so two
// deliveries with equal keys are the same packet duplicated by the
// network, and the merge pkt_i ∪ pkt_ji must apply once, not once per
// copy (a re-merge double-counts the child rate and burns a fresh
// flooding round out of the §3.3 lifetime budget).
type assignKey struct {
	parent    PeerID
	round     int
	childIdx  int
	seqOffset int
	streams   int
}

// firstDelivery records k and reports whether it was new.
func (p *Peer) firstDelivery(k assignKey) bool {
	if p.seenAssign[k] {
		return false
	}
	if p.seenAssign == nil {
		p.seenAssign = make(map[assignKey]bool)
	}
	p.seenAssign[k] = true
	return true
}

// dcopOnControl handles a parent's c1: merge when already transmitting,
// activate otherwise, then keep flooding while the view has holes.
// Duplicated deliveries of the same control are dropped (see assignKey).
// The union a merge makes is built here only when a selection follows
// and divides it; otherwise the schedule merges the share in lazily.
func (p *Peer) dcopOnControl(m *MsgControl, snap Snapshot) []Effect {
	if !p.firstDelivery(assignKey{parent: m.Parent, round: m.Round, childIdx: m.ChildIdx, seqOffset: m.SeqOffset}) {
		return nil
	}
	p.viewAdd(p.id)
	p.viewAdd(m.Parent)
	p.viewAddAll(m.View)
	effs := p.pl.slice()
	selects := !p.view.Full() && p.childrenTaken < p.cfg.H
	var cur Snapshot
	if p.active {
		p.noteMerged(m.Round, m.AssignedSeq)
		var merged seq.Sequence
		if selects {
			cur = snap.mergedWith(m.AssignedSeq, m.ChildRate)
			merged = cur.Stream
		}
		effs = append(effs, p.pl.merge(m.AssignedSeq, merged, m.ChildRate, m.Round))
	} else {
		p.noteActivated(m.Round, m.AssignedSeq)
		effs = append(effs, p.pl.activate(m.AssignedSeq, m.ChildRate, m.Round))
		cur = Snapshot{Stream: m.AssignedSeq, Rate: m.ChildRate}
	}
	if selects {
		effs = p.dcopSelect(effs, p.cfg.H, m.Round+1, cur)
	}
	return effs
}

// dcopOnCommit handles a mid-stream Join grant (the live layer reuses
// the commit packet to hand a joiner its slice; there is no handshake
// in DCoP, so a commit can arrive to an already-active peer too). A
// later, legitimate second grant differs in SeqOffset or Streams, which
// the dedup key includes; byte-identical re-deliveries merge once.
func (p *Peer) dcopOnCommit(m *MsgCommit, snap Snapshot) []Effect {
	if !p.firstDelivery(assignKey{parent: m.Parent, round: m.Round, childIdx: m.ChildIdx, seqOffset: m.SeqOffset, streams: m.Streams}) {
		return nil
	}
	p.viewAdd(m.Parent)
	effs := p.pl.slice()
	if p.active {
		p.noteMerged(m.Round, m.AssignedSeq)
		return append(effs, p.pl.merge(m.AssignedSeq, nil, m.Rate, m.Round))
	}
	p.noteActivated(m.Round, m.AssignedSeq)
	effs = append(effs, p.pl.activate(m.AssignedSeq, m.Rate, m.Round))
	if !p.view.Full() {
		effs = p.dcopSelect(effs, p.cfg.H, m.Round+1, Snapshot{Stream: m.AssignedSeq, Rate: m.Rate})
	}
	return effs
}

// dcopSelect floods one selection round: pick up to fanout children
// outside the view (bounded by the lifetime cap), divide the remaining
// stream into len+1 parity-enhanced parts, send each child its part,
// and hand own transmission off to part 0. Effects append to effs.
func (p *Peer) dcopSelect(effs []Effect, fanout, round int, cur Snapshot) []Effect {
	if remaining := p.cfg.H - p.childrenTaken; fanout > remaining {
		fanout = remaining // §3.3: at most H children over a lifetime
	}
	if fanout <= 0 {
		return effs
	}
	children, _ := overlay.SelectWithSparesInto(p.rng, p.view, fanout, p.selBuf, false)
	if children != nil {
		p.selBuf = children[:0] // recapture the (possibly regrown) scratch array
	}
	if len(children) == 0 {
		return effs
	}
	p.childrenTaken += len(children)
	p.view.AddAll(children)

	mark := MarkOffset(cur.Offset, p.cfg.MarkDelta, cur.Rate)
	parts, childRate := ShareOut(cur.Seq(), mark, cur.Rate, p.cfg.Interval, len(children)+1)
	p.membersBuf = p.view.MembersInto(p.membersBuf[:0])
	for i, c := range children {
		assigned := seqAt(parts, i+1)
		p.noteShare(c, assigned, childRate)
		m := p.pl.msgControl()
		m.Parent = p.id
		m.View = append(m.View[:0], p.membersBuf...)
		m.SeqOffset, m.Rate = cur.Offset, cur.Rate
		m.ChildRate, m.Children, m.ChildIdx = childRate, len(children), i+1
		m.AssignedSeq, m.Round = assigned, round
		effs = append(effs, p.pl.send(c, m))
	}
	keep, given := SplitParts(parts)
	return append(effs, p.pl.handoff(keep, given, cur.Rate, childRate, mark))
}
