// Package engine is the transport-agnostic coordination core shared by
// the discrete-event simulator (internal/coord) and the live runtime
// (internal/live). It holds the DCoP (§3.4) and TCoP (§3.5) state
// machines as pure events-in / effects-out objects: a driver feeds a
// Peer one Event at a time together with a Snapshot of its data-plane
// state, and applies the returned Effects — sends, timers, stream
// activations and hand-offs — onto its own notion of time and I/O. The
// data-plane effects have one implementation, Stream: a transmission
// schedule each driver keeps per peer and paces on its own clock. The
// leaf peer is Leaf, likewise clock-free, one per driver session.
//
// The engine owns every protocol transition (control, confirmation and
// commit handling, handshake deadlines, alternate-peer retry waves,
// commit re-absorption, the §3.3 lifetime fanout cap); drivers own
// encoding, transports, clocks and data-plane pacing. No goroutines, no
// clocks, no I/O: all randomness comes from the injected *rand.Rand, so
// a driver that replays the same events observes the same effects.
//
// Events, effects and messages are pointer types drawn from per-peer
// free lists (see pool.go): a driver that returns batches via
// Peer.Release and message nodes via ReleaseMsg runs a steady-state
// coordination round with (amortized) zero engine allocations. Both
// calls are optional — uncollected nodes fall back to the GC.
package engine

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"p2pmss/internal/des"
	"p2pmss/internal/overlay"
	"p2pmss/internal/parity"
	"p2pmss/internal/seq"
	"p2pmss/internal/span"
)

// PeerID identifies a contents peer (the overlay numbering 0..n-1). The
// simulator uses them as its network's node ids directly; the live layer maps roster
// addresses onto indices (out-of-roster joiners get ephemeral ids ≥ n,
// which the engine tracks but never adds to bounded views).
type PeerID = overlay.PeerID

// LeafID is the sentinel id of the leaf peer LP_s, which is not a
// contents peer and never appears in views.
const LeafID PeerID = -1

// Protocol names a coordination protocol. It is a string alias (not a
// defined type) so a value read from a flag or config file flows
// unchanged to either driver.
type Protocol = string

// The two protocols the engine implements, under the names every layer
// accepts (the simulator adds its sim-only baselines in internal/coord).
const (
	// DCoP is the paper's redundant distributed coordination protocol
	// (§3.4): flooding where a peer may be selected by multiple parents.
	DCoP Protocol = "dcop"
	// TCoP is the non-redundant tree-based coordination protocol (§3.5):
	// a three-round handshake gives every peer at most one parent.
	TCoP Protocol = "tcop"
)

// Config parameterizes one peer's coordination state machine. Times
// (MarkDelta, HandshakeTimeout, CommitRelease) are in the driver's time
// unit — virtual time units in the simulator, seconds in the live
// runtime — and flow back out unchanged through SetTimer effects.
type Config struct {
	// N is the number of contents peers (the view size).
	N int
	// H is the selection fanout (§3.3): the lifetime cap on children per
	// parent, and the per-round handshake width.
	H int
	// Interval is the parity interval h for DCoP re-enhancement. TCoP
	// re-enhances with the per-node interval c2.n regardless (§3.5).
	Interval int
	// FirstFanout is the fanout of a leaf-selected DCoP peer's first
	// selection (§3.4 prose says H-1, pseudocode H). Zero means H.
	FirstFanout int
	// MarkDelta is the δ used to advance the marked packet: a parent
	// that reported offset o at rate r hands children the stream from
	// MarkOffset(o, MarkDelta, r).
	MarkDelta float64
	// HandshakeTimeout bounds each TCoP confirmation round; it doubles
	// on every retry wave.
	HandshakeTimeout float64
	// CommitRelease is how long an adopted child waits for the commit
	// before releasing the adoption so another parent can take it.
	CommitRelease float64
	// Retries bounds how many alternate peers a parent contacts when a
	// selected child refuses, is unreachable, or stays silent. Zero
	// disables retry waves (the paper's base protocol).
	Retries int
	// DCoP selects the redundant flooding protocol; false selects TCoP.
	DCoP bool
}

// Normalize applies defaults and validates.
func (c *Config) Normalize() error {
	if c.N <= 0 {
		return fmt.Errorf("engine: N=%d must be positive", c.N)
	}
	if c.H <= 0 {
		return fmt.Errorf("engine: H=%d must be positive", c.H)
	}
	if c.Interval <= 0 {
		return fmt.Errorf("engine: parity interval %d must be positive", c.Interval)
	}
	if c.FirstFanout == 0 {
		c.FirstFanout = c.H
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	return nil
}

// Snapshot is the driver-owned data-plane state stamped onto every
// Handle call: the engine is pure and never watches a stream position
// advance, so the driver reports where its transmitter stands right now
// — Stream.Snapshot of the schedule its effects were applied to.
type Snapshot struct {
	// Offset is how many packets of the stream have been sent (c.SEQ).
	Offset int
	// Stream is the full current transmission sequence of a snapshot
	// built by hand; read it with Seq, which also covers a
	// Stream.Snapshot. Nil in the simulator's control-plane-only mode,
	// where divisions are not materialized and effects carry rates only.
	Stream seq.Sequence
	// Rate is the current transmission rate.
	Rate float64
	// Pending reports whether a hand-off is already planned but not yet
	// applied (guards mid-stream Join grants).
	Pending bool
	// src is the schedule a Stream.Snapshot reads, folded into one
	// sequence only when Seq is called.
	src *Stream
}

// Seq is the full current transmission sequence. A Stream's snapshot
// folds the shares merged into it here, so only the paths that divide
// the stream — a selection, a join, a TCoP commit — pay for that.
func (s Snapshot) Seq() seq.Sequence {
	if s.src == nil {
		return s.Stream
	}
	s.src.fold()
	return s.src.seq
}

// mergedWith is the snapshot a selection following §3.4's merge of
// share at rate divides: the unsent remainder ∪ share from its first
// packet, at the summed rate. In control-plane-only mode (a nil stream
// merging a nil share) it keeps the snapshot's offset, at the summed
// rate too.
func (s Snapshot) mergedWith(share seq.Sequence, rate float64) Snapshot {
	stream := s.Seq()
	if stream == nil && share == nil {
		return Snapshot{Offset: s.Offset, Rate: s.Rate + rate}
	}
	var rem seq.Sequence
	if s.Offset < len(stream) {
		rem = stream[s.Offset:]
	}
	return Snapshot{Stream: seq.Union(rem, share), Rate: s.Rate + rate}
}

// ---- events -------------------------------------------------------------

// Event is an input to Peer.Handle. All events are pointer types; the
// engine never retains an event past the Handle call, so drivers may
// reuse scratch event structs between calls.
type Event interface{ isEvent() }

// Request is the leaf peer's content request c (§3.4 step 1). The
// driver resolves the content and precomputes the initial assignment
// (round-robin or the heterogeneous §2 slot allocation), because only
// the driver holds the content; the engine does the view bookkeeping and
// child selection.
type Request struct {
	Assigned seq.Sequence
	Rate     float64
	Selected []PeerID
	Round    int
}

// Control delivers a control packet c1.
type Control struct{ Msg *MsgControl }

// Confirm delivers a TCoP confirmation cc1.
type Confirm struct{ Msg *MsgConfirm }

// Commit delivers a TCoP commit c2 (also used for mid-stream Join
// grants under either protocol).
type Commit struct{ Msg *MsgCommit }

// TimerFired delivers a timer previously requested via SetTimer.
type TimerFired struct{ Timer TimerID }

// SendFailed reports that a Send effect could not be delivered (crashed
// or unreachable peer). TCoP controls fail over to alternates; assigned
// shares (DCoP controls, TCoP commits) are re-absorbed.
type SendFailed struct {
	To  PeerID
	Msg any
}

// Join volunteers a peer for the in-flight stream: an active peer hands
// the joiner a slice of its remaining stream.
type Join struct{ Joiner PeerID }

// Repair asks the peer to retransmit the listed content packets. The
// engine only decides whether to serve (it always does, per the leaf-
// driven repair protocol); the driver materializes the packets.
type Repair struct{ Indices []int64 }

func (*Request) isEvent()    {}
func (*Control) isEvent()    {}
func (*Confirm) isEvent()    {}
func (*Commit) isEvent()     {}
func (*TimerFired) isEvent() {}
func (*SendFailed) isEvent() {}
func (*Join) isEvent()       {}
func (*Repair) isEvent()     {}

// ---- messages -----------------------------------------------------------

// MsgControl is a control packet c1 from a parent contents peer. The
// paper's c carries the parent's view, SEQ, rate and child count; the
// child then derives its subsequence from the parent's schedule. Because
// parent and child compute the same deterministic division from the same
// (known) δ, the engine precomputes the division at the parent and
// carries the child's share in AssignedSeq (nil in control-plane-only
// mode; DCoP only — TCoP assigns at commit time).
//
// Message nodes created by the engine are pool-owned (see ReleaseMsg);
// nodes constructed by hand or decoded from the wire are plain GC'd
// values.
type MsgControl struct {
	Parent      overlay.PeerID
	View        []overlay.PeerID // c.VW
	SeqOffset   int              // offset of the most recently sent packet (c.SEQ)
	Rate        float64          // c.τ, the parent's transmission rate
	ChildRate   float64          // the derived per-child rate
	Children    int              // H_j, number of children selected
	ChildIdx    int              // which division (1..H_j) this child takes
	AssignedSeq seq.Sequence     // the child's division pkt_ji
	Round       int
	// Span is the causal context the message carries (zero when tracing
	// is disabled). Stamped by the driver-side Observer, never by the
	// protocol logic.
	Span span.Context

	pl *pool
}

// MsgConfirm is TCoP's (positive or negative) confirmation cc1.
type MsgConfirm struct {
	Child  overlay.PeerID
	Accept bool
	Round  int
	Span   span.Context

	pl *pool
}

// MsgCommit is TCoP's second control packet c2.
type MsgCommit struct {
	Parent      overlay.PeerID
	Streams     int // c2.n = confirmed children + 1
	SeqOffset   int
	Rate        float64 // the per-stream rate
	ChildIdx    int     // 1..Streams-1
	AssignedSeq seq.Sequence
	Round       int
	Span        span.Context

	pl *pool
}

// ---- timers -------------------------------------------------------------

// TimerKind distinguishes the engine's timers.
type TimerKind int

const (
	// TimerConfirm is a TCoP confirmation-round deadline: on firing the
	// parent either launches a retry wave of alternates (doubled
	// deadline) or finalizes with the confirmations that arrived.
	TimerConfirm TimerKind = iota
	// TimerRelease releases a child's adoption when the commit never
	// arrives, so another parent can take it later.
	TimerRelease
)

// TimerID identifies a timer. Gen guards against stale firings (the
// engine bumps its generation whenever the timer's purpose lapses);
// Peer carries the adopted parent for TimerRelease.
type TimerID struct {
	Kind TimerKind
	Gen  int
	Peer PeerID
}

// ---- effects ------------------------------------------------------------

// Effect is an output of Peer.Handle, applied by the driver in order.
// All effects are pool-owned pointer types; see Peer.Release.
type Effect interface{ isEffect() }

// Send transmits Msg (a *MsgControl, *MsgConfirm or *MsgCommit) to peer
// To. If delivery fails the driver feeds back a SendFailed event.
type Send struct {
	To  PeerID
	Msg any
}

// SetTimer asks the driver to deliver TimerFired{ID} after Delay (in the
// driver's time unit). Stale timers need not be cancelled — the engine's
// generation guards ignore them.
type SetTimer struct {
	ID    TimerID
	Delay float64
}

// Activate installs the peer's first stream: it starts transmitting Seq
// at Rate.
type Activate struct {
	Seq   seq.Sequence
	Rate  float64
	Round int
}

// Merge unions an additional subsequence into the not-yet-sent remainder
// (DCoP's pkt_i := pkt_i ∪ pkt_ji for redundantly selected peers) and
// adds Rate to the current rate. Stream.Apply merges Seq in as a run,
// at the cost of the share. Only when a selection follows, and the
// engine divided the union itself, does Stream carry it: the unsent
// remainder of the Snapshot it was handed ∪ Seq, which Stream.Apply
// installs at offset zero. Nil otherwise (and in control-plane-only
// mode, where only the rate moves).
type Merge struct {
	Seq    seq.Sequence
	Stream seq.Sequence
	Rate   float64
	Round  int
}

// Handoff plans the parent's own switch after delegating to children:
// at the mark, the unsent remainder loses the Given shares, gains Keep,
// and the rate moves by NewRate−OldRate (see Stream.Switch). Mark
// indexes the Snapshot's stream; Given are ShareOut's parts 1..k−1.
// Keep/Given are nil in control-plane-only mode (rate change only).
// Absorb effects arriving before the switch is applied fold back into
// it. Stream.Apply copies the fields out: the node itself is recycled by
// Release.
type Handoff struct {
	Keep             seq.Sequence
	Given            []seq.Sequence
	OldRate, NewRate float64
	Mark             int
}

// Absorb returns an undeliverable child's share to the parent, so
// delivery does not depend on repair: Stream.Apply folds Seq and
// RateDelta into the planned switch, or merges them into the unsent
// remainder when none is planned.
type Absorb struct {
	Seq       seq.Sequence
	RateDelta float64
}

// ServeRepair asks the driver to retransmit the listed content packets
// to the requesting leaf.
type ServeRepair struct{ Indices []int64 }

func (*Send) isEffect()        {}
func (*SetTimer) isEffect()    {}
func (*Activate) isEffect()    {}
func (*Merge) isEffect()       {}
func (*Handoff) isEffect()     {}
func (*Absorb) isEffect()      {}
func (*ServeRepair) isEffect() {}

// ---- peer ---------------------------------------------------------------

// pendShare is an assigned child share still absorbable on send failure.
type pendShare struct {
	to   PeerID
	s    seq.Sequence
	rate float64
}

// Peer is one contents peer's coordination state machine.
type Peer struct {
	cfg Config
	id  PeerID
	rng *rand.Rand

	view      overlay.View
	active    bool
	parent    int // -1 = none; leaf-rooted peers point at themselves
	committed bool
	round     int // activation round (tree depth)

	// DCoP: children taken over the peer's lifetime (capped at H, §3.3).
	childrenTaken int
	// DCoP: assignments already delivered once, so network-duplicated
	// controls/commits don't re-merge or re-flood (see assignKey).
	seenAssign map[assignKey]bool

	// TCoP handshake state. outstanding is a small slice (≤ H entries)
	// scanned linearly; outstandingOpen distinguishes "no round in
	// flight" from "round open with every control answered".
	wanted          int
	outstanding     []PeerID
	outstandingOpen bool
	candQueue       []PeerID
	retryLeft       int
	confirmed       []PeerID
	ctlRound        int
	final           bool
	gen             int // confirmation-round generation
	relGen          int // adoption-release generation
	confirmDelay    float64

	// Open hand-off shares, absorbable while their send can still fail.
	// A slice, not a map: a peer hands out at most H+joins shares.
	shares []pendShare

	// Outcome bookkeeping. assigned holds every subsequence ever assigned
	// (the operands of pkt_i), in arrival order, as the slice headers the
	// events carried; Outcome unions them when somebody asks.
	children []PeerID
	assigned []seq.Sequence
	retried  int
	absorbed int

	// Free lists and scratch buffers (selection, view membership,
	// restricted views) reused across Handle calls.
	pl         pool
	selBuf     []PeerID
	membersBuf []PeerID
	rviewBuf   []PeerID
	one        [1]PeerID
}

// NewPeer returns the state machine of contents peer id. The caller
// must have normalized cfg and owns the seeding of rng (see PeerSeed).
func NewPeer(cfg Config, id PeerID, rng *rand.Rand) *Peer {
	return &Peer{
		cfg:    cfg,
		id:     id,
		rng:    rng,
		view:   overlay.NewView(cfg.N),
		parent: -1,
	}
}

// Reset rewinds the state machine to its just-constructed state while
// keeping every internal capacity — view words, scratch buffers, free
// lists — so a harness can rerun rounds on the same peers without
// reallocating. The caller owns reseeding the injected rng.
func (p *Peer) Reset() {
	p.view.Clear()
	p.active = false
	p.parent = -1
	p.committed = false
	p.round = 0
	p.childrenTaken = 0
	clear(p.seenAssign)
	p.wanted = 0
	p.outstanding = p.outstanding[:0]
	p.outstandingOpen = false
	p.candQueue = nil
	p.retryLeft = 0
	p.confirmed = p.confirmed[:0]
	p.ctlRound = 0
	p.final = false
	p.gen = 0
	p.relGen = 0
	p.confirmDelay = 0
	p.shares = p.shares[:0]
	p.children = p.children[:0]
	clear(p.assigned) // drop the retained shares, keep the headers' array
	p.assigned = p.assigned[:0]
	p.retried = 0
	p.absorbed = 0
}

// Handle advances the state machine by one event and returns the
// effects for the driver to apply, in order. snap is the driver's
// data-plane state at this instant. The returned batch is pool-owned:
// apply it, then (optionally) give it back via Release.
func (p *Peer) Handle(ev Event, snap Snapshot) []Effect {
	switch e := ev.(type) {
	case *Request:
		return p.handleRequest(e, snap)
	case *Control:
		if p.cfg.DCoP {
			return p.dcopOnControl(e.Msg, snap)
		}
		return p.tcopOnControl(e.Msg)
	case *Confirm:
		if p.cfg.DCoP {
			return nil
		}
		return p.tcopOnConfirm(e.Msg, snap)
	case *Commit:
		if p.cfg.DCoP {
			return p.dcopOnCommit(e.Msg, snap)
		}
		return p.tcopOnCommit(e.Msg, snap)
	case *TimerFired:
		return p.onTimer(e.Timer, snap)
	case *SendFailed:
		return p.onSendFailed(e, snap)
	case *Join:
		return p.handleJoin(e, snap)
	case *Repair:
		effs := p.pl.slice()
		return append(effs, p.pl.serveRepair(e.Indices))
	}
	return nil
}

// handleRequest is activation by the leaf peer (§3.4/§3.5 step 2).
func (p *Peer) handleRequest(ev *Request, snap Snapshot) []Effect {
	if p.active {
		return nil
	}
	p.viewAdd(p.id)
	p.viewAddAll(ev.Selected)
	p.noteActivated(ev.Round, ev.Assigned)
	effs := p.pl.slice()
	effs = append(effs, p.pl.activate(ev.Assigned, ev.Rate, ev.Round))
	cur := Snapshot{Stream: ev.Assigned, Rate: ev.Rate}
	if p.cfg.DCoP {
		return p.dcopSelect(effs, p.cfg.FirstFanout, ev.Round+1, cur)
	}
	p.parent = int(p.id) // leaf-rooted: no contents-peer parent to adopt
	return p.tcopSelect(effs, ev.Round+1, cur)
}

// handleJoin hands a mid-stream joiner a slice: the remaining stream is
// divided in two at a mark (plain split, no added parity), the joiner is
// committed the second half, and this peer keeps the first. Declined
// when inactive or when a hand-off is already pending.
func (p *Peer) handleJoin(ev *Join, snap Snapshot) []Effect {
	if !p.active || snap.Pending || ev.Joiner == p.id {
		return nil
	}
	stream := snap.Seq()
	mark := MarkOffset(snap.Offset, p.cfg.MarkDelta, snap.Rate)
	if stream == nil || mark >= len(stream)-1 {
		return nil // too little left to be worth sharing
	}
	parts, rate := ShareOut(stream, mark, snap.Rate, 0, 2)
	p.viewAdd(ev.Joiner)
	p.noteShare(ev.Joiner, parts[1], rate)
	m := p.pl.msgCommit()
	m.Parent, m.Streams, m.SeqOffset = p.id, 2, snap.Offset
	m.Rate, m.ChildIdx, m.AssignedSeq, m.Round = rate, 1, parts[1], p.round+1
	keep, given := SplitParts(parts)
	effs := p.pl.slice()
	effs = append(effs, p.pl.send(ev.Joiner, m))
	return append(effs, p.pl.handoff(keep, given, snap.Rate, rate, mark))
}

// onSendFailed reacts to an undeliverable message: TCoP controls fail
// over to an alternate candidate (budget permitting); messages that
// carried an assigned share (DCoP controls, commits) are re-absorbed.
func (p *Peer) onSendFailed(ev *SendFailed, snap Snapshot) []Effect {
	switch ev.Msg.(type) {
	case *MsgControl:
		if p.cfg.DCoP {
			return p.absorb(ev.To)
		}
		if p.final || !p.outstandingOpen || !p.outstandingDrop(ev.To) {
			return nil
		}
		if repl, ok := p.pullAlternate(); ok {
			p.outstanding = append(p.outstanding, repl)
			effs := p.pl.slice()
			return append(effs, p.pl.send(repl, p.retryControl(snap, repl)))
		}
		return p.maybeFinalize(nil, snap)
	case *MsgCommit:
		return p.absorb(ev.To)
	}
	return nil
}

// absorb returns an undeliverable child's share to this peer.
func (p *Peer) absorb(to PeerID) []Effect {
	for i := len(p.shares) - 1; i >= 0; i-- {
		if p.shares[i].to != to {
			continue
		}
		sh := p.shares[i]
		p.shares[i] = p.shares[len(p.shares)-1]
		p.shares[len(p.shares)-1] = pendShare{}
		p.shares = p.shares[:len(p.shares)-1]
		p.dropChild(to)
		p.absorbed++
		effs := p.pl.slice()
		return append(effs, p.pl.absorbEff(sh.s, sh.rate))
	}
	return nil
}

// onTimer dispatches a timer firing; stale generations are ignored.
func (p *Peer) onTimer(id TimerID, snap Snapshot) []Effect {
	switch id.Kind {
	case TimerConfirm:
		return p.tcopOnConfirmTimeout(id, snap)
	case TimerRelease:
		if id.Gen != p.relGen {
			return nil
		}
		if !p.active && p.parent == int(id.Peer) && !p.committed {
			p.parent = -1 // commit lost: release so another parent can adopt
		}
	}
	return nil
}

// ---- shared internal helpers -------------------------------------------

// viewAdd records a peer in the view, ignoring ids outside 0..N-1
// (the leaf sentinel and live-layer ephemeral joiners).
func (p *Peer) viewAdd(id PeerID) {
	if id >= 0 && int(id) < p.cfg.N {
		p.view.Add(id)
	}
}

func (p *Peer) viewAddAll(ids []PeerID) {
	for _, id := range ids {
		p.viewAdd(id)
	}
}

// outstandingDrop removes id from the outstanding set, reporting
// whether it was present.
func (p *Peer) outstandingDrop(id PeerID) bool {
	for i, o := range p.outstanding {
		if o == id {
			p.outstanding[i] = p.outstanding[len(p.outstanding)-1]
			p.outstanding = p.outstanding[:len(p.outstanding)-1]
			return true
		}
	}
	return false
}

// noteActivated records a (first) activation for the outcome.
func (p *Peer) noteActivated(round int, s seq.Sequence) {
	p.active = true
	if round > p.round {
		p.round = round
	}
	p.noteAssigned(s)
}

// noteMerged records an additional assignment for the outcome.
func (p *Peer) noteMerged(round int, s seq.Sequence) {
	if round > p.round {
		p.round = round
	}
	p.noteAssigned(s)
}

// noteAssigned records s as one more operand of pkt_i.
func (p *Peer) noteAssigned(s seq.Sequence) {
	if len(s) > 0 {
		p.assigned = append(p.assigned, s)
	}
}

// noteShare records a handed-off share while its send may still fail.
// A re-share to the same peer (a joiner asking twice) replaces the open
// entry, mirroring the historical map semantics.
func (p *Peer) noteShare(to PeerID, s seq.Sequence, rate float64) {
	replaced := false
	for i := range p.shares {
		if p.shares[i].to == to {
			p.shares[i] = pendShare{to: to, s: s, rate: rate}
			replaced = true
			break
		}
	}
	if !replaced {
		p.shares = append(p.shares, pendShare{to: to, s: s, rate: rate})
	}
	p.children = append(p.children, to)
}

// dropChild removes the last occurrence of c from the children list.
func (p *Peer) dropChild(c PeerID) {
	for i := len(p.children) - 1; i >= 0; i-- {
		if p.children[i] == c {
			p.children = append(p.children[:i], p.children[i+1:]...)
			return
		}
	}
}

// restrictedView builds the sorted c1 view restricted to the sender and
// the given children in the peer's scratch buffer (valid until the next
// call). Out-of-range sender ids (live-layer ephemeral joiners) are
// skipped, like viewAdd.
func (p *Peer) restrictedView(children []PeerID) []PeerID {
	p.rviewBuf = p.rviewBuf[:0]
	if p.id >= 0 && int(p.id) < p.cfg.N {
		p.rviewBuf = append(p.rviewBuf, p.id)
	}
	p.rviewBuf = append(p.rviewBuf, children...)
	slices.Sort(p.rviewBuf)
	return p.rviewBuf
}

// ---- outcome ------------------------------------------------------------

// Outcome is the coordination result of one peer, for conformance
// comparison across drivers and for tests.
type Outcome struct {
	ID     PeerID
	Active bool
	// Parent is the adopting parent (TCoP), the peer itself when
	// leaf-rooted, or -1.
	Parent    int
	Committed bool
	// Children lists the peers this peer handed shares to, in hand-off
	// order (absorbed-back children removed).
	Children []PeerID
	// shares are the subsequences assigned to this peer, in arrival
	// order, as the events carried them (see Assigned).
	shares []seq.Sequence
	// Round is the peer's activation round (tree depth).
	Round int
	// Retried and Absorbed count alternate-peer retries and re-absorbed
	// hand-offs (churn-tolerance observability).
	Retried, Absorbed int
}

// Outcome returns the peer's current coordination outcome.
func (p *Peer) Outcome() Outcome {
	return Outcome{
		ID:        p.id,
		Active:    p.active,
		Parent:    p.parent,
		Committed: p.committed,
		Children:  append([]PeerID(nil), p.children...),
		shares:    slices.Clone(p.assigned),
		Round:     p.round,
		Retried:   p.retried,
		Absorbed:  p.absorbed,
	}
}

// Assigned is the union of every subsequence ever assigned to this peer
// (§3.4's pkt_i after all merges), independent of what was later handed
// off. It is derived on each call, so an outcome nobody reads costs no
// union.
func (o Outcome) Assigned() seq.Sequence { return unionAll(o.shares) }

// MarshalJSON encodes the outcome with Assigned() written out as a field
// between Children and Round, byte for byte what encoding/json wrote when
// Assigned was a field.
func (o Outcome) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		ID                PeerID
		Active            bool
		Parent            int
		Committed         bool
		Children          []PeerID
		Assigned          seq.Sequence
		Round             int
		Retried, Absorbed int
	}{o.ID, o.Active, o.Parent, o.Committed, o.Children, o.Assigned(), o.Round, o.Retried, o.Absorbed})
}

// unionAll is the union of the shares in arrival order, by balanced
// pairwise Union: O(total · log k) packet copies for k shares, paid by
// the reader of Outcome.Assigned and never by a protocol step. On a
// shared identity Union keeps its left operand's packet, so the
// representative is the first arrival's, as a left fold would pick. A
// single share is returned as is — it is immutable (see the seq package
// doc).
func unionAll(shares []seq.Sequence) seq.Sequence {
	switch len(shares) {
	case 0:
		return nil
	case 1:
		return shares[0]
	}
	mid := len(shares) / 2
	return seq.Union(unionAll(shares[:mid]), unionAll(shares[mid:]))
}

// Active reports whether the peer has activated.
func (p *Peer) Active() bool { return p.active }

// ParentID returns the adopting parent, the peer itself when
// leaf-rooted, or -1.
func (p *Peer) ParentID() int { return p.parent }

// Committed reports whether the peer received its TCoP commit.
func (p *Peer) Committed() bool { return p.committed }

// Confirmed returns the children confirmed in the peer's most recent
// handshake round. The slice is reused across rounds; copy to retain.
func (p *Peer) Confirmed() []PeerID { return p.confirmed }

// ChildrenTaken returns how many children the peer has taken over its
// lifetime (the §3.3 cap counter).
func (p *Peer) ChildrenTaken() int { return p.childrenTaken }

// ---- shared math --------------------------------------------------------

// MarkOffset computes the §3.3 marked packet: the parent reported
// sending the packet at sentOffset when the control packet left; δ time
// units later it has sent ⌊δ·rate⌋ more packets. Flooring is the safe
// direction — overlap is a harmless duplicate, whereas overestimating
// the mark would leave packets nobody transmits.
func MarkOffset(sentOffset int, delta, rate float64) int {
	return sentOffset + int(math.Floor(delta*rate+1e-9))
}

// ShareOut computes the division of parent stream ps (from mark offset)
// into k parts using parity interval p: Esq then round-robin Div, in one
// pass (parity.EnhanceDivide; the parts share one block). It
// returns the k parts (part 0 is the parent's own share) and the
// per-stream rate that preserves aggregate content throughput,
// parentRate·(p+1)/(p·k). (The TCoP pseudocode sets τ_i := τ_j/c2.n,
// which silently loses the parity overhead's throughput; we keep the
// content flowing at the parent's pace — see DESIGN.md §2.)
//
// p ≤ 0 requests plain division with no added parity (minimum-redundancy
// handover), with rate parentRate/k. A nil ps (control-plane-only mode)
// yields nil parts.
func ShareOut(ps seq.Sequence, mark int, parentRate float64, p, k int) ([]seq.Sequence, float64) {
	var rate float64
	if p > 0 {
		rate = parentRate * float64(p+1) / float64(p*k)
	} else {
		rate = parentRate / float64(k)
	}
	if ps == nil {
		return nil, rate
	}
	if mark > len(ps) {
		mark = len(ps)
	}
	tail := ps[mark:]
	if len(tail) == 0 {
		return make([]seq.Sequence, k), rate
	}
	if p > 0 {
		return parity.EnhanceDivide(tail, p, k), rate
	}
	return seq.Divide(tail, k), rate
}

// SplitParts separates a ShareOut result into the parent's own share
// and the children's shares; both are nil in control-plane-only mode.
func SplitParts(parts []seq.Sequence) (keep seq.Sequence, given []seq.Sequence) {
	if len(parts) == 0 {
		return nil, nil
	}
	return parts[0], parts[1:]
}

// PeerSeed derives the deterministic RNG seed of peer id from the run's
// base seed (the splitmix64 finaliser des.Mix), so every peer owns an
// independent random stream and both drivers seed identically: each
// seeds a des.NewRand with it.
func PeerSeed(base int64, id PeerID) int64 {
	x := uint64(base) + 0x9e3779b97f4a7c15*uint64(int64(id)+2)
	return int64(des.Mix(x) & 0x7fffffffffffffff)
}

// SessionSeed derives the base seed of one session from a population
// seed and the session's id (FNV-1a, then des.Mix), so every member of
// a live session derives the same run seed without exchanging it, and
// a simulator run at that seed draws what the session draws.
func SessionSeed(base int64, session string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(session); i++ {
		h ^= uint64(session[i])
		h *= 1099511628211
	}
	return int64(des.Mix(uint64(base)^h) & 0x7fffffffffffffff)
}

// SelectInitial is the leaf peer's step 1: it selects h of the n
// contents peers uniformly at random and returns the rest as failover
// spares, in preference order.
func SelectInitial(rng *rand.Rand, n, h int) (sel, spares []PeerID) {
	return overlay.SelectWithSpares(rng, overlay.NewView(n), h)
}
