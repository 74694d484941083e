// Package fluid is the flow-level data plane: instead of materializing
// one DES event per data packet, each transmitter is modeled as a slot
// grid — a first-send time and a period — and packet counts over any
// interval are evaluated in closed form. A coordination hand-off or a
// DCoP merge cuts the current segment and opens a new one (with a fresh
// phase, mirroring the packet plane's randomized first slot), so the
// per-run cost is proportional to the number of coordination events,
// not to rate × time. That is what lets an mssim sweep reach n = 10⁵
// peers: the packet plane would schedule ~rate·n events per time unit,
// the fluid plane schedules none.
//
// Exactness: at zero jitter and zero loss the packet plane's send times
// are exactly the slot grid (modulo accumulated floating-point drift in
// its repeated After(1/rate) hops), so Sends and Arrivals agree with
// per-packet counting up to boundary ties. Jitter is folded in as its
// mean (latency + Jitter/2) and Bernoulli loss as a thinning factor, so
// with impairments the fluid counts are expectations, not samples.
//
// A Ledger keeps every flow's segments in one per-run slab (des.Slab):
// a flow that fills its carve moves to one twice as long, so a run
// allocates per block of segments, not per restart.
package fluid

import (
	"math"
	"slices"

	"p2pmss/internal/des"
)

// segment is one steady-state stretch of a flow: sends at
// first, first+period, first+2·period, … strictly before until.
type segment struct {
	first  float64
	period float64
	until  float64 // +Inf while the segment is open
}

// countIn returns the number of the segment's slot ticks in [lo, hi).
func (s segment) countIn(lo, hi float64) int64 {
	if s.period <= 0 {
		return 0
	}
	if lo < s.first {
		lo = s.first
	}
	if hi > s.until {
		hi = s.until
	}
	if hi <= lo {
		return 0
	}
	n := int64(math.Ceil((hi-s.first)/s.period)) - int64(math.Ceil((lo-s.first)/s.period))
	if n < 0 {
		return 0
	}
	return n
}

// interval is a half-open [from, to) downtime stretch of a flow's
// sender (crash until rejoin): sends on the grid still tick — the
// packet plane's transmitter keeps its slot schedule while crashed —
// but the network drops them, so they never arrive.
type interval struct {
	from, to float64
}

// Ledger tracks every flow of one run. Flow IDs are the contents-peer
// indices 0..n-1. The zero Ledger has no flows; Reset sizes it.
type Ledger struct {
	flows [][]segment
	masks [][]interval
	segs  des.Slab[segment] // where the flows' segment lists are carved
}

// Reset makes l a ledger for n flows, all idle, in the storage l has: a
// simulated run's arena keeps one ledger from run to run.
func (l *Ledger) Reset(n int) {
	clear(l.flows) // past their lengths, an earlier Reset cleared them
	clear(l.masks)
	l.flows, l.masks = slices.Grow(l.flows[:0], n)[:n], slices.Grow(l.masks[:0], n)[:n]
	l.segs.Reset()
}

// Start cuts flow id's open segment at now and opens a new one whose
// first send is at now+phase with the given period. A non-positive
// period just cuts (the flow goes idle), mirroring a zero-rate
// assignment in the packet plane.
func (l *Ledger) Start(id int, now, phase, period float64) {
	l.Cut(id, now)
	if period <= 0 {
		return
	}
	segs := l.flows[id]
	if len(segs) == cap(segs) {
		segs = append(l.segs.Carve(max(2, 2*len(segs))), segs...)
	}
	l.flows[id] = append(segs, segment{first: now + phase, period: period, until: math.Inf(1)})
}

// Cut closes flow id's open segment at now: the send scheduled at or
// after now never happens (the packet plane cancels the pending slot
// event on reassignment).
func (l *Ledger) Cut(id int, now float64) {
	segs := l.flows[id]
	if n := len(segs); n > 0 && math.IsInf(segs[n-1].until, 1) {
		segs[n-1].until = now
	}
}

// Mask opens a downtime interval for flow id at now: grid ticks keep
// counting toward Sends, but arrivals inside the mask are suppressed.
// A second Mask while one is open is a no-op.
func (l *Ledger) Mask(id int, now float64) {
	ms := l.masks[id]
	if n := len(ms); n > 0 && math.IsInf(ms[n-1].to, 1) {
		return
	}
	l.masks[id] = append(ms, interval{from: now, to: math.Inf(1)})
}

// Unmask closes flow id's open downtime interval at now (rejoin).
// Without an open mask it is a no-op.
func (l *Ledger) Unmask(id int, now float64) {
	ms := l.masks[id]
	if n := len(ms); n > 0 && math.IsInf(ms[n-1].to, 1) {
		ms[n-1].to = now
	}
}

// Sends returns how many packets flow id has put on the wire by until
// (exclusive), downtime included — the packet plane's transmitter
// counts a send attempt even while its node is crashed; the network is
// what drops it.
func (l *Ledger) Sends(id int, until float64) int64 {
	var n int64
	for _, s := range l.flows[id] {
		n += s.countIn(math.Inf(-1), until)
	}
	return n
}

// delivered returns how many of flow id's sends in [lo, hi) survive the
// sender's downtime masks.
func (l *Ledger) delivered(id int, lo, hi float64) int64 {
	var n int64
	for _, s := range l.flows[id] {
		n += s.countIn(lo, hi)
		for _, m := range l.masks[id] {
			mLo, mHi := m.from, m.to
			if mLo < lo {
				mLo = lo
			}
			if mHi > hi {
				mHi = hi
			}
			n -= s.countIn(mLo, mHi)
		}
	}
	return n
}

// Arrivals returns the expected number of packets arriving at the leaf
// inside the window [w0, w1), over all flows. latency is the mean
// one-way delay (Delta + Jitter/2); thin is the per-packet survival
// probability (1 - LossProb). A packet sent at t arrives at t+latency,
// so the window maps back to sends in [w0-latency, w1-latency).
func (l *Ledger) Arrivals(w0, w1, latency, thin float64) float64 {
	var n int64
	for id := range l.flows {
		n += l.delivered(id, w0-latency, w1-latency)
	}
	return float64(n) * thin
}
