package parity

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"p2pmss/internal/seq"
)

// LossDetector is a leaf's missing set for a content of l data packets,
// and its repair policy: the rule that tells which missing packets §3.2's
// parity can no longer recover, the end-of-stream rule (Tail) for the
// losses past every sender's last packet, the stall backstop (Stall) for
// what neither can see, and the order in which to ask senders (Targets).
// It is a pure function of what it is fed — arrivals with their sender
// and receipt time, and the indices that became present — and never
// reads a clock, so both drivers (virtual time and wall clock) and tests
// on fabricated times share it.
//
// The rule. A missing data index k is lost once every sender heard
// within the last window has delivered a packet positioned more than a
// slack past the end of k's recovery segment. Each sender transmits its
// subsequence in position order, and a recovery segment's parity sits
// inside the range its segment covers (nested parities inside the range
// of theirs), so past that point nothing that could deliver t_k, or the
// parity and partners that would recover it, is still in flight. Judging
// whole segments reports a segment's unrecoverable losses together. The
// slack is one recovery segment per sender, H·(h+1) positions, widened to
// the largest reorder displacement the detector has itself observed: a
// packet arriving behind its own sender's furthest position by that much.
//
// A sender not yet heard is not in the set (its positions are judged by
// the others), unless Expect registered it: an expected sender holds the
// rule back until it is heard or its window runs out. A data packet
// behind the cursor — a repair reply for an index already reported lost
// or asked for by a round, or a packet parity recovered before it came —
// fills its gap but says nothing about its sender's stream.
//
// The end of the stream. No sender streams past position l, so the gap
// rule never proves a loss in the stream's last slack. Once every sender
// heard within the window has delivered a packet within the end slack of
// l — the slack widened by two mean steps of one sender's stream, so that
// a sender whose last packet was lost still reaches it — the stream has
// ended: the content's end is the frontier, and what is still missing
// once no packet has arrived for a grace is reported by a Tail round. The
// grace is the time the stream took, on average, to cover the end slack:
// more than any one sender's next packet takes, with the reordering the
// detector has seen on top. After that round the leaf waits only for
// repair replies, so a Tail round asks again for what is still missing
// after the grace plus the delay the session's first packet took (a round
// trip and the peers' coordination), doubling the wait each round without
// a data gain until it reaches a window, where Stall takes over.
//
// The missing set is a union-find over 1..l+1 ("the smallest missing
// index ≥ k"), so listing the missing indices costs O(|missing|), and the
// rule advances a lowest-unresolved cursor, so an arrival costs O(1)
// amortised plus one pass over the senders when the arriving one has
// passed the cursor by more than the slack, or is within the slack of
// the end of a stream not yet ended.
type LossDetector struct {
	l int64
	// next[k] == k while t_k is missing; a present index points further
	// right. next[l+1] is the sentinel.
	next []int32
	have int64
	// cursor is the lowest unresolved index: every missing index below it
	// has been reported lost or requested.
	cursor int64
	// h, slack and window arm the rule (window 0: the missing set only);
	// reorder is the largest displacement observed, stride the mean
	// step forward of one sender's stream (a moving average).
	h                              int64
	slack, window, reorder, stride float64
	senders                        []Sender
	// The stall clock starts (begun, at start) with the first Expect,
	// Arrive or Stall; since is the last time Have grew (gained is Have
	// then), the last round or the start; arrived is set by any Arrive,
	// first and last are the times of the first and the latest.
	begun, arrived bool
	start, since   float64
	first, last    float64
	gained         int64
	// ended is set once the stream has ended (see Tail), grace derived
	// then; tails counts the Tail rounds since the last data gain.
	ended bool
	grace float64
	tails int
}

// quietStart is how many windows a leaf that has received nothing waits,
// from the start of its stall clock, before its silence counts as a
// stall: coordination and the first transmission slot are still in
// flight. It outlasts the live leaf's default request re-sends
// (RepairAfter/2 × 5 waves, 2.5 windows), and is finite so that a leaf
// whose selected peers never send still falls through to repair.
const quietStart = 4

// RepairBatch is how many indices one repair request names.
const RepairBatch = 64

// Sender is what the detector knows of one source of data packets.
type Sender struct {
	// LastHeard is when the sender last delivered a packet (or, before its
	// first, when it was expected); -Inf for a slot never used.
	LastHeard float64
	// MaxPos is the furthest position it has delivered; -Inf before its
	// first packet.
	MaxPos float64
}

// Heard reports whether the sender has delivered a packet.
func (s Sender) Heard() bool { return s.MaxPos > math.Inf(-1) }

var never = Sender{LastHeard: math.Inf(-1), MaxPos: math.Inf(-1)}

// NewLossDetector returns the missing set of a content of l data
// packets, every index missing and the loss rule unarmed.
func NewLossDetector(l int) *LossDetector {
	d := new(LossDetector)
	d.Reset(l)
	return d
}

// Reset empties d for a content of l data packets, as NewLossDetector
// makes one, in the storage d has.
func (d *LossDetector) Reset(l int) {
	l = max(l, 0)
	next := d.next
	if cap(next) < l+2 {
		next = make([]int32, l+2)
	}
	next = next[:l+2]
	for k := range next {
		next[k] = int32(k)
	}
	*d = LossDetector{l: int64(l), next: next, cursor: 1, senders: d.senders[:0]}
}

// Arm enables the loss rule for a content enhanced with parity interval
// h and divided among senders peers: window is how long a silent sender
// still counts, in the caller's time unit.
func (d *LossDetector) Arm(h, senders int, window float64) {
	d.h, d.slack, d.window = int64(max(h, 1)), float64(senders*(h+1)), window
}

// Present records that data packet t_k is present (received or
// recovered). Indices outside 1..l and repeats are ignored.
func (d *LossDetector) Present(k int64) {
	if k < 1 || k > d.l || int64(d.next[k]) != k {
		return
	}
	d.next[k] = int32(k + 1)
	d.have++
}

// Have returns how many of the l data packets are present.
func (d *LossDetector) Have() int64 { return d.have }

// Complete reports whether every data packet is present.
func (d *LossDetector) Complete() bool { return d.have == d.l }

// Missing lists the absent indices in ascending order.
func (d *LossDetector) Missing() []int64 {
	out := make([]int64, 0, d.l-d.have)
	for k := d.find(1); k <= d.l; k = d.find(k + 1) {
		out = append(out, k)
	}
	return out
}

// find returns the smallest missing index ≥ k (l+1 when there is none),
// halving the path it walks.
func (d *LossDetector) find(k int64) int64 {
	for {
		n := int64(d.next[k])
		if n == k {
			return k
		}
		nn := d.next[n]
		d.next[k] = nn
		k = int64(nn)
	}
}

// Senders returns the per-sender state, indexed by sender id. The slice
// is the detector's own: read it, do not keep it across calls.
func (d *LossDetector) Senders() []Sender { return d.senders }

// sender returns sender id's entry, growing the table to hold it.
func (d *LossDetector) sender(id int) *Sender {
	for id >= len(d.senders) {
		d.senders = append(d.senders, never)
	}
	return &d.senders[id]
}

// Expect registers a sender the leaf has asked to stream before its
// first packet: until heard it holds the rule back, for at most a window
// from now. A sender already heard is unaffected.
func (d *LossDetector) Expect(sender int, now float64) {
	d.begin(now)
	if s := d.sender(sender); !s.Heard() {
		s.LastHeard = now
	}
}

// begin starts the stall clock if nothing has yet.
func (d *LossDetector) begin(now float64) {
	if !d.begun {
		d.begun, d.start, d.since = true, now, now
	}
}

// Round is one tail or stall round: what to ask for, and what to record
// of it.
type Round struct {
	// Missing is every missing index, ascending.
	Missing []int64
	// StalledFor is how long no data index had become present (at most
	// since the previous round).
	StalledFor float64
	// Retry reports that Missing[0] had been asked for before, by the gap
	// rule or an earlier round, and is still missing.
	Retry bool
}

// Stall is the backstop for what the gap and end-of-stream rules cannot
// see — every sender crashed, a sender whose last packets were lost, a
// start that never came, repair replies lost until Tail stopped asking.
// The leaf is stalled at now when the rule is armed, the content is
// incomplete, no data index has become present for a window (a repair
// reply counts), and, while no packet at all has arrived, quietStart
// windows have passed since the stall clock started.
func (d *LossDetector) Stall(now float64) (Round, bool) {
	d.begin(now)
	if d.window <= 0 || d.Complete() || now-d.since < d.window ||
		!d.arrived && now-d.start < quietStart*d.window {
		return Round{}, false
	}
	return d.round(now), true
}

// TailDue returns when Tail next has something to do: +Inf before the
// stream has ended, once the content is complete, and once Tail's wait
// has grown to a window (or, with nothing observed to derive it from, is
// zero).
func (d *LossDetector) TailDue() float64 {
	if !d.ended || d.Complete() {
		return math.Inf(1)
	}
	wait := d.grace
	if d.tails > 0 {
		wait = math.Ldexp(d.grace+d.first-d.start, d.tails-1)
	}
	if wait <= 0 || wait >= d.window {
		return math.Inf(1)
	}
	return max(d.last, d.since) + wait
}

// Tail is the end-of-stream round: once the stream has ended and nothing
// has arrived for a grace (or, after a Tail round, for the re-ask wait),
// it lists every missing index.
func (d *LossDetector) Tail(now float64) (Round, bool) {
	if now < d.TailDue() {
		return Round{}, false
	}
	d.tails++
	return d.round(now), true
}

// round lists every missing index and marks it requested, so the gap
// rule does not report it again, and restarts the stall window.
func (d *LossDetector) round(now float64) Round {
	missing := d.Missing()
	r := Round{Missing: missing, StalledFor: now - d.since, Retry: missing[0] < d.cursor}
	d.cursor = max(d.cursor, missing[len(missing)-1]+1)
	d.since = now
	return r
}

// Targets orders sender ids 0..n-1 for repair requests: most recently
// heard first — after churn, the senders still streaming are the
// likeliest survivors — then, in random order, the ones never heard.
// Senders with ids n and above are never targets.
func (d *LossDetector) Targets(n int, rng *rand.Rand) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	rng.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	heard := func(id int) float64 {
		if id < len(d.senders) && d.senders[id].Heard() {
			return d.senders[id].LastHeard
		}
		return math.Inf(-1)
	}
	slices.SortStableFunc(ids, func(a, b int) int { return cmp.Compare(heard(b), heard(a)) })
	return ids
}

// Arrive records that sender delivered p at time now, after p was fed to
// the recoverer, and appends to lost, in ascending order, the missing
// indices this arrival proves lost. Each index is reported once.
func (d *LossDetector) Arrive(sender int, p *seq.Packet, now float64, lost []int64) []int64 {
	d.begin(now)
	if !d.arrived {
		d.arrived, d.first = true, now
	}
	d.last = now
	if d.have > d.gained {
		d.gained, d.since, d.tails = d.have, now, 0
	}
	if p.IsData() && p.Index < d.cursor {
		// A repair reply, a straggler already given up on, or a packet
		// parity recovered first: its position says nothing about the
		// sender's stream, but a streaming sender is still alive.
		if sender < len(d.senders) && d.senders[sender].Heard() {
			d.senders[sender].LastHeard = now
		}
		return lost
	}
	s := d.sender(sender)
	s.LastHeard = now
	if p.Pos > s.MaxPos {
		if s.Heard() {
			d.stride += (p.Pos - s.MaxPos - d.stride) / 8
		}
		s.MaxPos = p.Pos
	} else if disp := s.MaxPos - p.Pos; disp > d.reorder {
		d.reorder = disp
	}
	if d.window <= 0 {
		return lost
	}
	slack := d.slack + d.reorder
	endSlack := slack + 2*d.stride
	if end := float64(d.l) - endSlack; !d.ended && s.MaxPos >= end && d.frontier(now) >= end {
		d.ended = true
		d.grace = endSlack * (now - d.first) / float64(d.l)
	}
	c := d.find(d.cursor)
	d.cursor = c
	if c > d.l || s.MaxPos <= d.segmentEnd(c)+slack {
		return lost // the arriving sender itself has not passed the cursor
	}
	frontier := d.frontier(now)
	for c <= d.l {
		end := d.segmentEnd(c)
		if end >= frontier-slack {
			break
		}
		for ; float64(c) <= end; c = d.find(c + 1) {
			lost = append(lost, c)
		}
	}
	d.cursor = c
	return lost
}

// frontier is the furthest position every sender heard within the
// window at now has reached.
func (d *LossDetector) frontier(now float64) float64 {
	f := math.Inf(1)
	for i := range d.senders {
		if o := &d.senders[i]; now-o.LastHeard <= d.window {
			f = min(f, o.MaxPos)
		}
	}
	return f
}

// segmentEnd is the position of the last data packet of k's recovery
// segment in Esq(content, h).
func (d *LossDetector) segmentEnd(k int64) float64 {
	return float64(min((k+d.h-1)/d.h*d.h, d.l))
}
