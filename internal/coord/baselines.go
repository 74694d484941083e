package coord

import (
	"p2pmss/internal/engine"
	"p2pmss/internal/parity"
	"p2pmss/internal/seq"
)

// broadcast implements the first baseline of §3.1: the leaf peer
// broadcasts the content request to all n contents peers; every peer
// immediately starts transmitting the whole enhanced sequence (maximally
// redundant — the leaf may overrun its buffer), while exchanging state
// control packets with every other peer in a simple group communication.
// Once a peer has heard from all others it switches to its 1/n division.
type broadcast struct {
	r *runner
}

func (b *broadcast) start() {
	r := b.r
	for i := 0; i < r.cfg.N; i++ {
		r.sendCtl(r.leafID(), i, reqMsg{Rate: r.cfg.Rate, Index: i, Round: 1}, 1)
	}
}

func (b *broadcast) deliver(p *peerNode, from int, m any) {
	switch msg := m.(type) {
	case reqMsg:
		b.onRequest(p, msg)
	case stateMsg:
		b.onState(p, msg)
	}
}

func (b *broadcast) onRequest(p *peerNode, m reqMsg) {
	r := b.r
	p.activate(m.Round, r.enhancedContent(), parity.ReceiptRate(r.cfg.Rate, r.cfg.Interval))
	// Group communication: one state control packet to every other peer.
	for j := 0; j < r.cfg.N; j++ {
		if j != int(p.id) {
			r.sendCtl(int(p.id), j, stateMsg{Peer: p.id, Round: m.Round + 1}, m.Round+1)
		}
	}
}

func (b *broadcast) onState(p *peerNode, m stateMsg) {
	r := b.r
	p.statesSeen++
	if p.statesSeen != r.cfg.N-1 {
		return
	}
	// Heard from everyone: converge to the 1/n division by peer rank.
	p.tx.install(seq.Div(r.enhancedContent(), r.cfg.N, int(p.id)), r.perPeerRateAll())
}

// unicast implements the second baseline of §3.1: the leaf peer sends the
// content request to CP_0 only; each peer, after starting, informs the
// next peer, handing over half of its remaining schedule. Minimum
// redundancy (no re-enhancement — the chain merely partitions the stream),
// but it takes n rounds for all contents peers to synchronize.
type unicast struct {
	r *runner
}

func (u *unicast) start() {
	r := u.r
	r.sendCtl(r.leafID(), 0, reqMsg{Rate: r.cfg.Rate, Index: 0, Round: 1}, 1)
}

func (u *unicast) deliver(p *peerNode, from int, m any) {
	switch msg := m.(type) {
	case reqMsg:
		u.onRequest(p, msg)
	case ctlMsg:
		u.onControl(p, msg)
	}
}

func (u *unicast) onRequest(p *peerNode, m reqMsg) {
	r := u.r
	p.activate(m.Round, r.enhancedContent(), parity.ReceiptRate(r.cfg.Rate, r.cfg.Interval))
	u.forward(p, m.Round+1)
}

func (u *unicast) onControl(p *peerNode, m ctlMsg) {
	p.activate(m.Round, m.AssignedSeq, m.ChildRate)
	u.forward(p, m.Round+1)
}

// forward hands half of p's remaining stream to the next peer in the
// chain. ShareOut is called with interval 0: plain division, no added
// parity (minimum redundancy).
func (u *unicast) forward(p *peerNode, round int) {
	r := u.r
	next := int(p.id) + 1
	if next >= r.cfg.N {
		return
	}
	offset, own := p.tx.currentOffset(), p.tx.st.Snapshot()
	mark := engine.MarkOffset(offset, r.cfg.Delta, own.Rate)
	parts, rate := engine.ShareOut(own.Seq(), mark, own.Rate, 0, 2)
	msg := ctlMsg{
		Parent:    p.id,
		SeqOffset: offset,
		Rate:      own.Rate,
		ChildRate: rate,
		Children:  1,
		ChildIdx:  1,
		Round:     round,
	}
	if parts != nil {
		msg.AssignedSeq = parts[1]
	}
	r.sendCtl(int(p.id), next, msg, round)
	keep, given := engine.SplitParts(parts)
	p.tx.plan(&engine.Handoff{Keep: keep, Given: given, OldRate: own.Rate, NewRate: rate, Mark: mark})
}

// centralized implements the 2PC-style controller protocol of reference
// [5] (Itaya et al., ISM'05): the leaf asks one controller peer, which
// runs a prepare/ack/start exchange with every other contents peer — "at
// least three rounds to synchronize" (§1) — after which all n peers start
// transmitting their 1/n divisions simultaneously.
type centralized struct {
	r *runner
}

func (c *centralized) start() {
	r := c.r
	r.sendCtl(r.leafID(), 0, reqMsg{Rate: r.cfg.Rate, Index: 0, Round: 1}, 1)
}

func (c *centralized) deliver(p *peerNode, from int, m any) {
	switch msg := m.(type) {
	case reqMsg:
		c.onRequest(p, msg)
	case prepMsg:
		c.onPrep(p, msg)
	case ackMsg:
		c.onAck(p, msg)
	case startMsg:
		c.onStart(p, msg)
	}
}

func (c *centralized) onRequest(p *peerNode, m reqMsg) {
	r := c.r
	for j := 1; j < r.cfg.N; j++ {
		r.sendCtl(int(p.id), j, prepMsg{Index: j, Round: m.Round + 1}, m.Round+1)
	}
	if r.cfg.N == 1 {
		c.activateDivision(p, 0, m.Round)
		return
	}
	// Loss guard: commit with whoever acked after a round-trip budget
	// (a no-op once every ack has arrived).
	r.eng.After(2*(r.cfg.Delta+r.cfg.Jitter)+0.001, func() { c.commit(p, m.Round+3) })
}

func (c *centralized) onPrep(p *peerNode, m prepMsg) {
	c.r.sendCtl(int(p.id), 0, ackMsg{Peer: p.id, Round: m.Round + 1}, m.Round+1)
}

func (c *centralized) onAck(p *peerNode, m ackMsg) {
	p.statesSeen++
	if p.statesSeen == c.r.cfg.N-1 {
		c.commit(p, m.Round+1)
	}
}

// commit is the controller's final round, run once: tell every peer to
// start, then start itself.
func (c *centralized) commit(p *peerNode, round int) {
	if p.committed {
		return
	}
	p.committed = true
	r := c.r
	for j := 1; j < r.cfg.N; j++ {
		r.sendCtl(int(p.id), j, startMsg{Index: j, Round: round}, round)
	}
	c.activateDivision(p, 0, round)
}

func (c *centralized) onStart(p *peerNode, m startMsg) {
	if p.active {
		return
	}
	c.activateDivision(p, m.Index, m.Round)
}

func (c *centralized) activateDivision(p *peerNode, idx, round int) {
	r := c.r
	p.activate(round, seq.Div(r.enhancedContent(), r.cfg.N, idx), r.perPeerRateAll())
}
