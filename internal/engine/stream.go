package engine

import (
	"math"

	"p2pmss/internal/seq"
)

// Stream is a contents peer's transmission schedule: the sequence it
// sends, how far it has got, the rate, and at most one planned switch (a
// Handoff not yet applied). It is a pure value with no clock and no I/O,
// and the only code that applies Activate, Merge, Handoff and Absorb.
// A driver keeps only its trigger for the switch: the simulator calls
// Switch δ after the plan (§3.3), the live peer when Due.
//
// A merge (§3.4's pkt_i := pkt_i ∪ pkt_ji) and a switch cost the share,
// not the unsent remainder: the share (a switch's Keep) is kept as a run
// on top of the sequence, and Next takes the packets of the chain — the
// sequence, then each run merged into what the ones below it give — one
// at a time, every run by the step-by-step rules of seq.Union (a
// switch's, of seq.UnionExcept without the Given packets), so a stream
// sends exactly what the eager unions would have built: equal
// identities meeting at the heads collapse to the earlier-merged copy,
// and a packet equal to the one that run passed on last is skipped. The
// runs are folded into one sequence only where something needs the
// whole stream: a Snapshot's Seq, a Handoff's mark and Rewind.
//
// A nil sequence is the simulator's control-plane-only mode (and its
// fluid plane): rates move, packets do not.
type Stream struct {
	seq     seq.Sequence
	pos     int // the next packet of seq
	rate    float64
	planned bool
	plan    plan
	// ch holds the runs once anything was merged or switched in (kept,
	// emptied, when they are folded); with no runs, seq is the whole
	// stream and pos its offset.
	ch *chain
}

// chain is the runs on top of a stream's sequence, oldest first, and
// the state they had when the stream last restarted from its first
// packet (a merge, a switch): the sequence a Snapshot shows is what the
// chain gives from there, off packets of it sent.
type chain struct {
	runs []run
	// head is the chain's next packet once Due or More has looked at it.
	head   lookahead
	off    int
	orgPos int
	org    []run
	// inUse lists the switches' drop sets, which a reset makes spare.
	inUse, spare *givenSet
}

// run is a merged-in share and the state of its step-by-step merge
// into the chain below it, which is the merge's first operand. A
// switch's run is its Keep, and drop leaves out the packets of the
// chain below that a child was given.
type run struct {
	s    seq.Sequence
	j    int       // the next packet of s
	left lookahead // the chain below's next packet
	last *seq.Packet
	drop *givenSet
}

// lookahead is a packet taken from a chain and not yet passed on; p is
// nil once the chain has run out.
type lookahead struct {
	p  *seq.Packet
	ok bool
}

// plan is a Handoff's switch, copied out of the recycled effect node.
type plan struct {
	keep             seq.Sequence
	given            []seq.Sequence
	oldRate, newRate float64
	// mark is the marked packet's Pos, so a Merge restarting the
	// sequence does not move the switch; +Inf past the end.
	mark float64
}

// Install replaces the sequence, from its first packet, and the rate. A
// planned switch stays planned.
func (st *Stream) Install(s seq.Sequence, rate float64) {
	st.seq, st.pos, st.rate = s, 0, rate
	st.ch.reset()
}

// Reset empties the stream for another session, keeping its chain's
// arrays: a simulator's transmitter builds its chain once, not per run.
func (st *Stream) Reset() {
	st.ch.reset()
	*st = Stream{ch: st.ch}
}

// Merge is §3.4's pkt_i := pkt_i ∪ pkt_ji: the peer goes on with its
// unsent remainder ∪ s, from the first packet, at its rate plus rate.
// It costs the share: s becomes a run the remainder is merged with as
// it is sent. A nil sequence merging a nil s (control-plane-only mode)
// moves the rate alone.
func (st *Stream) Merge(s seq.Sequence, rate float64) {
	st.rate += rate
	if s != nil || st.seq != nil || st.lazy() {
		st.push(s, nil)
	}
}

// lazy reports whether runs are merged on top of the sequence.
func (st *Stream) lazy() bool { return st.ch != nil && len(st.ch.runs) > 0 }

// push puts a run of s on top of the chain, a switch's if given is not
// nil: the stream goes on with what its merge gives, from its first
// packet.
func (st *Stream) push(s seq.Sequence, given []seq.Sequence) {
	if st.ch == nil {
		st.ch = new(chain)
	}
	ch := st.ch
	r := run{s: s, left: ch.head}
	if given != nil {
		r.drop = ch.newGiven(given)
		if r.left.ok && r.left.p != nil && r.drop.has(r.left.p) {
			r.left.ok = false // a look-ahead the switch drops
		}
	}
	ch.runs = append(ch.runs, r)
	ch.head, ch.off, ch.orgPos = lookahead{}, 0, st.pos
	ch.org = append(ch.org[:0], ch.runs...)
}

// Apply applies a data-plane effect (any other is ignored) and reports
// whether it changed the schedule now — its sequence, or a nil
// sequence's rate — for a driver to restart transmission. A Merge
// installs the union the engine built when it needed one, and merges
// its share otherwise. A Handoff plans a switch, applying one still
// planned first (and reports that); its Mark indexes the sequence the
// engine saw, the one before that switch. An Absorb folds into the
// planned switch (Keep and new rate), else merges into the remainder.
func (st *Stream) Apply(eff Effect) (replaced bool) {
	switch e := eff.(type) {
	case *Activate:
		st.Install(e.Seq, e.Rate)
	case *Merge:
		if e.Stream != nil {
			st.Install(e.Stream, st.rate+e.Rate)
		} else {
			st.Merge(e.Seq, e.Rate)
		}
	case *Handoff:
		st.fold()
		mark := math.Inf(1)
		if e.Mark < len(st.seq) {
			mark = st.seq[e.Mark].Pos
		}
		replaced = st.Switch()
		st.planned = true
		st.plan = plan{keep: e.Keep, given: e.Given, oldRate: e.OldRate, newRate: e.NewRate, mark: mark}
		return replaced
	case *Absorb:
		if st.planned {
			st.plan.keep = seq.Union(st.plan.keep, e.Seq)
			st.plan.newRate += e.RateDelta
			return false
		}
		st.Merge(e.Seq, e.RateDelta)
	default:
		return false
	}
	return true
}

// Switch applies the planned switch now, reporting whether there was
// one: the peer goes on with (unsent remainder ∖ Given) ∪ Keep from the
// first packet, at rate − old + new (new alone should that not be
// positive). Subtracting rather than replacing keeps what other parents
// merged in since the plan. Keep becomes a run that leaves the Given
// packets out of the chain below as it merges, so a switch costs Keep
// and Given, not the remainder. A nil sequence switches the rate only.
// "Given" is by identity, not position: a nested parity can recur at
// another position (two enhancements of one segment).
func (st *Stream) Switch() bool {
	if !st.planned {
		return false
	}
	pl := st.plan
	st.planned, st.plan = false, plan{}
	st.rate = st.rate - pl.oldRate + pl.newRate
	if st.rate <= 0 {
		st.rate = pl.newRate
	}
	if st.seq != nil || st.lazy() {
		st.push(pl.keep, pl.given)
	}
	return true
}

// Due reports whether the planned switch comes before the next packet:
// the next packet has reached the mark's position, or there is none.
func (st *Stream) Due() bool {
	if !st.planned {
		return false
	}
	p := st.peek()
	return p == nil || p.Pos >= st.plan.mark
}

// Next returns the next packet to send and moves past it; ok is false
// once the sequence has run out.
func (st *Stream) Next() (pkt seq.Packet, ok bool) {
	p := st.peek()
	if p == nil {
		return seq.Packet{}, false
	}
	if st.lazy() {
		st.ch.head.ok = false
		st.ch.off++
	} else {
		st.pos++
	}
	return *p, true
}

// More reports whether a packet is left to send.
func (st *Stream) More() bool { return st.peek() != nil }

// Rewind starts the sequence over (the simulator's looped streams).
func (st *Stream) Rewind() {
	st.fold()
	st.pos = 0
}

// Rate is the current transmission rate.
func (st *Stream) Rate() float64 { return st.rate }

// Snapshot is the schedule as Peer.Handle takes it. It reads the stream
// itself, so it holds until the stream next changes, and its Seq folds
// the runs only if the engine asks for the whole stream.
func (st *Stream) Snapshot() Snapshot {
	off := st.pos
	if st.lazy() {
		off = st.ch.off
	}
	return Snapshot{Offset: off, Rate: st.rate, Pending: st.planned, src: st}
}

// peek is the next packet to send, nil if there is none.
func (st *Stream) peek() *seq.Packet {
	if !st.lazy() {
		if st.pos < len(st.seq) {
			return &st.seq[st.pos]
		}
		return nil
	}
	ch := st.ch
	if !ch.head.ok {
		ch.head = lookahead{st.next(len(ch.runs)), true}
	}
	return ch.head.p
}

// fold makes the chain one sequence again: what it gives from its
// origin, as much of it sent as before.
func (st *Stream) fold() {
	if !st.lazy() {
		return
	}
	ch := st.ch
	n := len(st.seq) - ch.orgPos
	for _, r := range ch.org {
		n += len(r.s) - r.j
		if r.left.ok && r.left.p != nil {
			n++
		}
	}
	out := make(seq.Sequence, 0, n)
	st.pos = ch.orgPos
	ch.runs = append(ch.runs[:0], ch.org...)
	for p := st.next(len(ch.runs)); p != nil; p = st.next(len(ch.runs)) {
		out = append(out, *p)
	}
	st.seq, st.pos = out, ch.off
	ch.reset()
}

// reset empties the chain, keeping its capacity; a nil chain has none.
func (ch *chain) reset() {
	if ch == nil {
		return
	}
	clear(ch.runs) // let go of the shares
	clear(ch.org)
	ch.runs, ch.org = ch.runs[:0], ch.org[:0]
	ch.head, ch.off, ch.orgPos = lookahead{}, 0, 0
	for g := ch.inUse; g != nil; g = ch.inUse {
		g.ids.Reset(0) // let go of the shares
		ch.inUse, g.next, ch.spare = g.next, ch.spare, g
	}
}

// newGiven returns a drop set, a spare one if any, holding parts.
func (ch *chain) newGiven(parts []seq.Sequence) *givenSet {
	if ch.spare == nil {
		ch.spare = new(givenSet)
	}
	g := ch.spare
	ch.spare, g.next, ch.inUse = g.next, ch.inUse, g
	g.fill(parts)
	return g
}

// next takes the next packet of the sequence and its first n runs; nil
// once they have run out. Run n merges its share into what the chain
// below gives as seq.UnionExcept merges b into a, one packet per step:
// the chain's packets its drop names are left out, equal heads collapse
// to the chain's copy, else the one seq.Less puts first goes, and a
// packet with the identity of the one this run passed on last is
// skipped.
func (st *Stream) next(n int) *seq.Packet {
	if n == 0 {
		if st.pos == len(st.seq) {
			return nil
		}
		st.pos++
		return &st.seq[st.pos-1]
	}
	r := &st.ch.runs[n-1]
	for {
		if !r.left.ok {
			l := st.next(n - 1)
			for l != nil && r.drop != nil && r.drop.has(l) {
				l = st.next(n - 1)
			}
			r.left = lookahead{l, true}
		}
		l := r.left.p
		var left bool
		switch {
		case r.j == len(r.s):
			if l == nil {
				return nil
			}
			left = true
		case l == nil:
		case seq.SameIdentity(l, &r.s[r.j]):
			left = true
			r.j++
		default:
			left = seq.Less(l, &r.s[r.j])
		}
		p := l
		if left {
			r.left.ok = false
		} else {
			p = &r.s[r.j]
			r.j++
		}
		if r.last == nil || !seq.SameIdentity(p, r.last) {
			r.last = p
			return p
		}
	}
}

// givenSet is the identities of a hand-off's Given packets, with no map
// and no identity string built: data packets (identity = content index)
// as a bitset over the given index range, and parities — and data too
// sparse for a word per packet, which only a malformed remote share has
// — in a seq.Set. Looking all data up in the set too is simpler but
// costs the Figure-12 packet plane a hash per packet.
type givenSet struct {
	lo   int64
	data []uint64 // bit k−lo: data packet t_k was given
	ids  seq.Set
	next *givenSet // in its chain's list
}

// fill makes g the identities of parts, in g's arrays if they fit.
func (g *givenSet) fill(parts []seq.Sequence) {
	lo, hi, ndata, n := int64(math.MaxInt64), int64(math.MinInt64), 0, 0
	for _, part := range parts {
		for i := range part {
			if p := &part[i]; p.IsData() {
				lo, hi, ndata = min(lo, p.Index), max(hi, p.Index), ndata+1
			}
		}
		n += len(part)
	}
	g.lo, g.data = lo, g.data[:0]
	if ndata > 0 && uint64(hi-lo) < 64*uint64(ndata) {
		g.data = append(g.data, make([]uint64, (hi-lo)/64+1)...)
		n -= ndata
	}
	g.ids.Reset(n)
	for _, part := range parts {
		for i := range part {
			if p := &part[i]; p.IsData() && len(g.data) > 0 {
				g.data[(p.Index-lo)/64] |= 1 << ((p.Index - lo) % 64)
			} else {
				g.ids.Add(p)
			}
		}
	}
}

// has reports whether p was given away.
func (g *givenSet) has(p *seq.Packet) bool {
	if p.IsData() && len(g.data) > 0 {
		k := p.Index - g.lo
		return k >= 0 && k/64 < int64(len(g.data)) && g.data[k/64]&(1<<(k%64)) != 0
	}
	return g.ids.Has(p)
}
