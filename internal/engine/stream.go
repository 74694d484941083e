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
// A nil sequence is the simulator's control-plane-only mode (and its
// fluid plane): rates move, packets do not.
type Stream struct {
	seq     seq.Sequence
	pos     int
	rate    float64
	planned bool
	plan    plan
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
}

// Merge is §3.4's pkt_i := pkt_i ∪ pkt_ji: the peer goes on with its
// unsent remainder ∪ s, from the first packet, at its rate plus rate,
// and the union (one allocation) is returned. A nil sequence merging a
// nil s (control-plane-only mode) leaves everything, rate included, as
// it is and returns nil.
func (st *Stream) Merge(s seq.Sequence, rate float64) seq.Sequence {
	if st.seq == nil && s == nil {
		return nil
	}
	merged := seq.Union(st.remainder(), s)
	st.Install(merged, st.rate+rate)
	return merged
}

// Apply applies a data-plane effect (any other is ignored) and reports
// whether it changed the schedule now — its sequence, or a nil
// sequence's rate — for a driver to restart transmission. A Handoff
// plans a switch, applying one still planned first (and reports that);
// its Mark indexes the sequence the engine saw, the one before that
// switch. An Absorb folds into the planned switch (Keep and new rate),
// else merges into the remainder.
func (st *Stream) Apply(eff Effect) (replaced bool) {
	switch e := eff.(type) {
	case *Activate:
		st.Install(e.Seq, e.Rate)
	case *Merge:
		// The engine unioned against this schedule's Snapshot, once.
		st.Install(e.Stream, st.rate+e.Rate)
	case *Handoff:
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
		if st.seq == nil && e.Seq == nil {
			st.rate += e.RateDelta // a nil sequence moves its rate alone
		} else {
			st.Merge(e.Seq, e.RateDelta)
		}
	default:
		return false
	}
	return true
}

// Switch applies the planned switch now, reporting whether there was
// one: the peer goes on with (unsent remainder ∖ Given) ∪ Keep from the
// first packet, at rate − old + new (new alone should that not be
// positive). Subtracting rather than replacing keeps what other parents
// merged in since the plan. A nil sequence switches the rate only.
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
	if st.seq != nil {
		g := newGivenSet(pl.given)
		st.seq, st.pos = seq.UnionExcept(st.remainder(), pl.keep, g.has), 0
	}
	return true
}

// Due reports whether the planned switch comes before the next packet:
// the next packet has reached the mark's position, or there is none.
func (st *Stream) Due() bool {
	return st.planned && (st.pos >= len(st.seq) || st.seq[st.pos].Pos >= st.plan.mark)
}

// Next returns the next packet to send and moves past it; ok is false
// once the sequence has run out.
func (st *Stream) Next() (pkt seq.Packet, ok bool) {
	if st.pos >= len(st.seq) {
		return seq.Packet{}, false
	}
	st.pos++
	return st.seq[st.pos-1], true
}

// Rewind starts the sequence over (the simulator's looped streams).
func (st *Stream) Rewind() { st.pos = 0 }

// Remaining is how many packets are left to send.
func (st *Stream) Remaining() int { return len(st.seq) - st.pos }

// Rate is the current transmission rate.
func (st *Stream) Rate() float64 { return st.rate }

// Snapshot is the schedule as Peer.Handle takes it.
func (st *Stream) Snapshot() Snapshot {
	return Snapshot{Offset: st.pos, Stream: st.seq, Rate: st.rate, Pending: st.planned}
}

func (st *Stream) remainder() seq.Sequence {
	if st.pos < len(st.seq) {
		return st.seq[st.pos:]
	}
	return nil
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
}

func newGivenSet(parts []seq.Sequence) givenSet {
	lo, hi, ndata, n := int64(math.MaxInt64), int64(math.MinInt64), 0, 0
	for _, part := range parts {
		for i := range part {
			if p := &part[i]; p.IsData() {
				lo, hi, ndata = min(lo, p.Index), max(hi, p.Index), ndata+1
			}
		}
		n += len(part)
	}
	g := givenSet{lo: lo}
	if ndata > 0 && uint64(hi-lo) < 64*uint64(ndata) {
		g.data = make([]uint64, (hi-lo)/64+1)
		n -= ndata
	}
	g.ids = seq.NewSet(n)
	for _, part := range parts {
		for i := range part {
			if p := &part[i]; p.IsData() && g.data != nil {
				g.data[(p.Index-lo)/64] |= 1 << ((p.Index - lo) % 64)
			} else {
				g.ids.Add(p)
			}
		}
	}
	return g
}

// has reports whether p was given away.
func (g *givenSet) has(p *seq.Packet) bool {
	if p.IsData() && g.data != nil {
		k := p.Index - g.lo
		return k >= 0 && k/64 < int64(len(g.data)) && g.data[k/64]&(1<<(k%64)) != 0
	}
	return g.ids.Has(p)
}
