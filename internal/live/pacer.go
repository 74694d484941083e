package live

import "time"

// pacerMaxLag is how far behind its schedule a transmitter may fall and
// still catch up by sending back to back. Beyond it the backlog is
// forgiven: a peer that was starved of CPU for longer resumes at its
// rate instead of bursting the whole deficit into the bounded fabric or
// a UDP socket buffer, where it would block the sender or be dropped.
// It covers the timer and scheduler latency of a busy host (a few
// milliseconds), which is what the schedule exists to absorb, and at the
// highest per-peer rates in use amounts to a few hundred packets; it is
// a property of the host, not of a session, hence a constant.
const pacerMaxLag = 20 * time.Millisecond

// pacer is the transmitter's schedule: packet n is due one interval after
// packet n-1 was due, not after it was sent, so send time and timer
// latency do not accumulate and a stream of l packets at rate r ends
// l/r after it started. The schedule is a function of the timestamps it
// is given; it never reads a clock.
type pacer struct {
	due time.Time // when the next packet is due; zero before the first
}

// next returns how long to wait from now before sending the next packet
// and moves the schedule one interval on. The first packet after a reset
// is due one interval from now. A late caller gets zero until it has
// caught up; one later than pacerMaxLag restarts the schedule at now.
// The interval may change between calls (a merge or hand-off changed the
// rate): it spaces the packet after this one.
func (p *pacer) next(now time.Time, interval time.Duration) time.Duration {
	if p.due.IsZero() {
		p.due = now.Add(interval)
	}
	wait := p.due.Sub(now)
	if wait < -pacerMaxLag {
		p.due, wait = now, 0
	}
	p.due = p.due.Add(interval)
	return max(wait, 0)
}

// reset forgets the schedule; the stream went idle.
func (p *pacer) reset() { p.due = time.Time{} }
