package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"p2pmss/internal/content"
	"p2pmss/internal/metrics"
	"p2pmss/internal/parity"
	"p2pmss/internal/seq"
	"p2pmss/internal/span"
)

// Leaf is the leaf peer LP_s of both protocols (§3.4 step 1): it selects
// H contents peers and requests the content from each, failing a slot
// over to a spare when its send fails; re-sends the request to selected
// peers not yet heard from; assembles what arrives; asks for what parity
// cannot recover (the parity.LossDetector policy); and records the
// leaf's spans and latencies. Like Stream it is a pure value with no
// clock, goroutine or I/O: a driver feeds it the time, calls Tick at
// Deadline on its own clock, and hands every Dispatch to its carrier.
type Leaf struct {
	cfg  LeafConfig
	rng  *rand.Rand
	asm  *content.Assembler
	loss *parity.LossDetector // asm's; nil without asm
	// sel is the selection, copied on write: a request keeps the one it
	// was sent with. ctx is the session span's context.
	sel   []PeerID
	start float64
	ctx   span.Context
	heard bool
	// waves re-send waves are left, the next at nextRetry; stall checks
	// run while checking, the next at nextCheck; idle counts them since
	// Have last grew past had.
	waves                int
	checking             bool
	nextRetry, nextCheck float64
	had                  int64
	idle                 int
}

// LeafConfig parameterizes a Leaf. Times are in the driver's unit.
type LeafConfig struct {
	// N contents peers (ids 0..N-1), H selected, parity interval h.
	N, H, Interval int
	// Window is how long without progress is a stall (zero disables
	// repair; one is checked for every half window), Retry the period of
	// request re-sends (zero disables them).
	Window, Retry float64
	// Metrics are handles the driver registers; nil ones count nothing.
	Metrics LeafMetrics
	// Spans, when non-nil, receives the leaf's spans under Trace; the
	// root "session" span carries Session as its detail.
	Spans   *span.Collector
	Trace   span.TraceID
	Session string
}

// LeafMetrics are a Leaf's instrument handles. Repairs count batches by
// trigger; Retries counts re-sent requests and tail and stall rounds
// asking again for an index; Failovers counts request slots replaced and
// repair batches redirected after a failed send.
type LeafMetrics struct {
	GapRepairs, TailRepairs, StallRepairs, Retries, Failovers *metrics.Counter
	TimeToFirstPacket, StallDuration                          *metrics.Histogram
}

// LeafCarrier delivers a Leaf's messages: §3.4's content request c for
// the slot-th initial division, with the selection as it stood (never
// written afterwards), and repair requests. An error means the message
// certainly did not reach its peer; one lost silently is the re-send and
// stall rounds' business.
type LeafCarrier interface {
	Request(to PeerID, slot int, selected []PeerID, ctx span.Context) error
	Repair(to PeerID, indices []int64, trigger string) error
}

// At most requestRetryWaves re-send waves; repairGiveUp stall checks (20
// windows) in a row without a data gain end the checks, so a session
// nobody can complete stops asking and a simulation quiesces.
const requestRetryWaves, repairGiveUp = 5, 40

// NewLeaf returns a leaf drawing selection and repair targets from rng
// and assembling into asm, its stall checks starting at now. Without asm
// (a simulation with no packet plane, where nothing arrives) it neither
// repairs nor re-sends.
func NewLeaf(cfg LeafConfig, rng *rand.Rand, asm *content.Assembler, now float64) *Leaf {
	l := &Leaf{cfg: cfg, rng: rng, asm: asm}
	if asm != nil {
		l.loss = asm.Detector()
		if cfg.Window > 0 {
			l.loss.Arm(cfg.Interval, cfg.H, cfg.Window)
			l.checking, l.nextCheck = true, now+cfg.Window/2
		}
	}
	return l
}

// Start selects the H peers and returns their requests. The driver
// sends them, and gives the Dispatch back to Started.
func (l *Leaf) Start(now float64) *Dispatch {
	sel, spare := SelectInitial(l.rng, l.cfg.N, l.cfg.H)
	l.sel, l.start = sel, now
	if l.cfg.Spans != nil {
		l.ctx = span.Context{Trace: l.cfg.Trace, Span: l.cfg.Spans.NextID()}
	}
	if l.loss != nil {
		for _, id := range sel {
			// A selected peer that starts a little later than the others
			// is not a gap.
			l.loss.Expect(int(id), now)
		}
		if l.cfg.Retry > 0 {
			l.waves, l.nextRetry = requestRetryWaves, now+l.cfg.Retry
		}
	}
	slots := make([]int, len(sel))
	for i := range slots {
		slots[i] = i
	}
	return &Dispatch{l: l, sel: sel, spare: spare, slots: slots}
}

// Started takes Start's Dispatch back once sent: the spares that replaced
// failed slots are selected now, and expected.
func (l *Leaf) Started(d *Dispatch, now float64) {
	for i, id := range d.sel {
		if id != l.sel[i] && l.loss != nil {
			l.loss.Expect(int(id), now)
		}
	}
	l.sel = d.sel
}

// Arrive records that peer from delivered p at now and reports whether
// it is p's first receipt. The Dispatch, nil unless the arrival proved a
// gap, asks for what parity can no longer recover. It needs the
// Assembler NewLeaf was given.
func (l *Leaf) Arrive(now float64, from PeerID, p *seq.Packet) (fresh bool, d *Dispatch) {
	if !l.heard {
		l.heard = true
		l.cfg.Metrics.TimeToFirstPacket.Observe(now - l.start)
		l.span("first_packet", now, now, "")
	}
	fresh = l.asm.Add(*p)
	if lost := l.loss.Arrive(int(from), p, now, nil); lost != nil {
		d = l.repair(nil, lost, "gap", l.cfg.Metrics.GapRepairs)
	}
	return fresh, d
}

// Deadline is when Tick next has something to do; ok is false once
// nothing is left to time. Only the end of the stream lets an arrival
// move it earlier (the detector's TailDue): the arrival that ends the
// stream, and a repair reply after a tail round, which shortens the next
// wait — a few times a session at most.
func (l *Leaf) Deadline() (at float64, ok bool) {
	at = math.Inf(1)
	if l.waves > 0 {
		at = l.nextRetry
	}
	if l.checking {
		at = min(at, l.nextCheck)
	}
	if l.loss != nil {
		at = min(at, l.loss.TailDue())
	}
	return at, !math.IsInf(at, 1) && !l.asm.Complete()
}

// Tick runs what is due at now: a wave of re-sent requests to the
// selected peers not yet heard from — a datagram carrier loses a request
// without an error, and peers ignore one for a session they serve — and
// an end-of-stream round or a stall check.
func (l *Leaf) Tick(now float64) *Dispatch {
	var d *Dispatch
	if l.waves > 0 && now >= l.nextRetry {
		l.waves--
		l.nextRetry = now + l.cfg.Retry
		senders := l.loss.Senders()
		var quiet []int
		for slot, id := range l.sel {
			if int(id) >= len(senders) || !senders[id].Heard() {
				quiet = append(quiet, slot)
			}
		}
		if len(quiet) == 0 {
			l.waves = 0 // every slot is streaming
		} else {
			l.cfg.Metrics.Retries.Add(int64(len(quiet)))
			d = &Dispatch{l: l, sel: l.sel, slots: quiet, resend: true}
		}
	}
	if round, ok := l.loss.Tail(now); ok {
		return l.round(d, round, now, "tail", l.cfg.Metrics.TailRepairs)
	}
	if !l.checking || now < l.nextCheck {
		return d
	}
	l.nextCheck = now + l.cfg.Window/2
	if have := l.loss.Have(); have > l.had {
		l.had, l.idle = have, 0
	} else if l.idle++; l.idle == repairGiveUp {
		l.checking = false
		return d
	}
	round, ok := l.loss.Stall(now)
	if !ok {
		return d
	}
	l.cfg.Metrics.StallDuration.Observe(round.StalledFor)
	return l.round(d, round, now, "stall", l.cfg.Metrics.StallRepairs)
}

// round records a tail or stall round's span, from the last data gain,
// and adds its repair batches to d.
func (l *Leaf) round(d *Dispatch, round parity.Round, now float64, trigger string, count *metrics.Counter) *Dispatch {
	l.span(trigger, now-round.StalledFor, now, fmt.Sprintf("%d missing", len(round.Missing)))
	if round.Retry {
		l.cfg.Metrics.Retries.Inc()
	}
	return l.repair(d, round.Missing, trigger, count)
}

// repair adds to d (a new Dispatch when nil) the repair batches asking
// for missing, counting each once, and the targets in the detector's
// order.
func (l *Leaf) repair(d *Dispatch, missing []int64, trigger string, count *metrics.Counter) *Dispatch {
	if d == nil {
		d = &Dispatch{l: l}
	}
	count.Add(int64((len(missing) + parity.RepairBatch - 1) / parity.RepairBatch))
	d.missing, d.trigger, d.targets = missing, trigger, l.loss.Targets(l.cfg.N, l.rng)
	return d
}

// span records a span under the session span.
func (l *Leaf) span(name string, start, end float64, detail string) {
	if l.cfg.Spans != nil {
		l.cfg.Spans.Add(span.Span{
			Trace: l.cfg.Trace, ID: l.cfg.Spans.NextID(), Parent: l.ctx.Span,
			Name: name, Peer: int(LeafID), Start: start, End: end, Detail: detail,
		})
	}
}

// Close ends the session span at now. Call it once.
func (l *Leaf) Close(now float64) {
	if l.ctx.Span != 0 {
		l.cfg.Spans.Add(span.Span{
			Trace: l.cfg.Trace, ID: l.ctx.Span, Name: "session", Peer: int(LeafID),
			Start: l.start, End: now, Detail: l.cfg.Session,
		})
	}
}

// Dispatch is what one Leaf call asks a carrier to send: content
// requests, repair batches, or both. The driver Sends it outside any lock
// it holds over the Leaf: Send reads only what Start fixed and the
// (atomic) counters.
type Dispatch struct {
	l *Leaf
	// Requests: the slots to send and the selection; spare, Start's,
	// takes over a slot whose send fails unless the requests are re-sends.
	slots      []int
	sel, spare []PeerID
	resend     bool
	// Repairs: parity.RepairBatch indices at a time, round-robin over
	// targets.
	missing []int64
	targets []int
	trigger string
}

// Send hands d to c. A failed request goes to the next spare, and a
// failed repair batch to the next target. It errors only when the spares
// run out; d is then partly sent.
func (d *Dispatch) Send(c LeafCarrier) error {
	if d == nil {
		return nil
	}
	m := &d.l.cfg.Metrics
	for _, slot := range d.slots {
		for {
			err := c.Request(d.sel[slot], slot, d.sel, d.l.ctx)
			if err == nil || d.resend {
				break
			}
			m.Failovers.Inc()
			if len(d.spare) == 0 {
				return fmt.Errorf("engine: leaf request slot %d: roster exhausted: %w", slot, err)
			}
			d.sel = slices.Clone(d.sel)
			d.sel[slot], d.spare = d.spare[0], d.spare[1:]
		}
	}
	for off, t := 0, 0; off < len(d.missing); off += parity.RepairBatch {
		batch := d.missing[off:min(off+parity.RepairBatch, len(d.missing))]
		for tries := 0; tries < len(d.targets); tries++ {
			t++
			if c.Repair(PeerID(d.targets[(t-1)%len(d.targets)]), batch, d.trigger) == nil {
				break
			}
			m.Failovers.Inc()
		}
	}
	return nil
}
