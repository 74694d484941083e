package coord

import (
	"fmt"

	"p2pmss/internal/des"
	"p2pmss/internal/engine"
	"p2pmss/internal/flight"
	"p2pmss/internal/parity"
	"p2pmss/internal/seq"
	"p2pmss/internal/simnet"
	"p2pmss/internal/span"
)

// transmitter is a contents peer's data-plane sender: it transmits its
// schedule (an engine.Stream; the sequence is nil on the fluid plane and
// in control-plane-only mode) to the leaf peer, one packet per time slot
// of length 1/rate (§2's slot model), and switches δ after a plan.
type transmitter struct {
	r         *runner
	node      simnet.NodeID
	st        engine.Stream
	gen       int // transmission generation: a restart orphans older slots
	ev        *des.Event
	plans     int     // switches planned; a δ timer switches only its own
	startedAt float64 // activation time (control-plane-only bookkeeping)
	sentTotal int64
}

// install starts transmitting s at rate from its first packet.
func (tx *transmitter) install(s seq.Sequence, rate float64) {
	tx.st.Install(s, rate)
	tx.restart()
}

// plan plans a hand-off's switch and arms its trigger, δ time units
// from now (§3.3: "the parent also changes the packet subsequence to
// pkt_jj and the rate … on δ time units after CP_j sends the control
// packet"). A switch still planned is applied first.
func (tx *transmitter) plan(h *engine.Handoff) {
	if tx.st.Apply(h) && tx.r.cfg.DataPlane {
		tx.restart()
	}
	tx.plans++
	plan := tx.plans
	tx.r.eng.After(tx.r.cfg.Delta, func() {
		if plan == tx.plans && tx.st.Switch() && tx.r.cfg.DataPlane {
			tx.restart()
		}
	})
}

// restart begins transmitting the schedule as it now stands. On the
// fluid plane that is a new slot grid in the flow ledger; its phase draw
// mirrors the packet plane's, so a fluid run consumes eng.Rand() at the
// same points and (at zero jitter and loss) replays the same control
// trajectory. Control-plane-only runs only note the start time, which
// anchors their rate-estimated offsets.
func (tx *transmitter) restart() {
	now := tx.r.eng.Now()
	tx.startedAt = now
	if !tx.r.cfg.DataPlane {
		return
	}
	rate := tx.st.Rate()
	if tx.r.cfg.fluid() {
		if rate <= 0 {
			tx.r.fl.Cut(int(tx.node), now)
			return
		}
		phase := tx.r.eng.Rand().Float64() / rate
		tx.r.fl.Start(int(tx.node), now, phase, 1/rate)
		return
	}
	tx.gen++
	if tx.ev != nil {
		tx.ev.Cancel()
		tx.ev = nil
	}
	if rate <= 0 || tx.st.Remaining() == 0 {
		return
	}
	// Randomize the phase of the first slot so that steady-state rate
	// measurements see each stream's average rate even when the window is
	// shorter than the slot length (sending early is harmless — the
	// packets are this peer's own share).
	tx.slot(tx.r.eng.Rand().Float64() / rate)
}

// slot sends the next packet after delay and keeps the grid going while
// there is something to send.
func (tx *transmitter) slot(delay float64) {
	gen := tx.gen
	tx.ev = tx.r.eng.After(delay, func() {
		if gen != tx.gen {
			return
		}
		tx.sendNext()
		if tx.st.Remaining() > 0 || tx.r.cfg.Loop {
			tx.slot(1 / tx.st.Rate())
		}
	})
}

func (tx *transmitter) sendNext() {
	pkt, ok := tx.st.Next()
	if !ok && tx.r.cfg.Loop {
		tx.st.Rewind()
		pkt, ok = tx.st.Next()
	}
	if !ok {
		return
	}
	tx.sentTotal++
	tx.r.met.dataSent.Inc()
	tx.r.nw.Send(tx.node, tx.r.leafID(), dataMsg{Pkt: pkt})
}

// leafNode is the leaf peer LP_s: it receives data packets, enforces its
// maximum receipt rate ρ_s with a drain-at-ρ buffer (§3.1's buffer
// overrun), deduplicates, and measures arrival rate inside the
// experiment's window.
type leafNode struct {
	r *runner
	// recov, non-nil when Config.TrackDelivery, also tells first receipts
	// from duplicates; without it seen counts the receipts per identity.
	recov *parity.Recoverer
	seen  map[string]int

	// Totals over the whole run.
	total, dup int64
	overruns   int64

	// Buffer model (active when cfg.LeafMaxRate > 0).
	bufLevel  float64
	lastDrain float64

	// Window counters.
	winTotal, winData, winParity, winDup int64

	// Playback model (Config.Playback): consumption of data packets in
	// content order at the content rate, starting PlaybackDelay after
	// the first arrival.
	playbackScheduled bool
	nextConsume       int64

	// Repair state (Config.Repair).
	lastProgress int64
	repairRounds int
	quietChecks  int
	// lastArrivalAt is the virtual time of the most recent arrival, for
	// stall-duration observability.
	lastArrivalAt float64
	// loss is the missing set fed off the recoverer, armed as the gap
	// detector the live leaf runs.
	loss *parity.LossDetector
}

func newLeaf(r *runner) *leafNode {
	l := &leafNode{r: r}
	if r.cfg.TrackDelivery {
		l.recov = parity.NewSizedRecoverer(int(r.cfg.ContentLen))
	} else {
		l.seen = make(map[string]int)
	}
	if r.cfg.Repair {
		// Seed lastProgress so that even after the bounded quiet-period
		// checks in repairCheck are exhausted, the first fall-through
		// records progress (-1 never equals Present()) instead of burning
		// a repair round on a spurious request.
		l.lastProgress = -1
		l.loss = parity.NewLossDetector(int(r.cfg.ContentLen))
		l.loss.Arm(r.cfg.Interval, r.cfg.H, r.cfg.RepairInterval)
		l.recov.OnData(l.loss.Present)
	}
	return l
}

// Receive implements simnet.Handler for data packets; coordination
// messages addressed to the leaf (TCoP confirmations are peer→peer, so
// none today) are ignored.
func (l *leafNode) Receive(from simnet.NodeID, m simnet.Message) {
	dm, ok := m.(dataMsg)
	if !ok {
		return
	}
	now := l.r.eng.Now()
	if l.r.cfg.LeafMaxRate > 0 {
		l.bufLevel -= (now - l.lastDrain) * l.r.cfg.LeafMaxRate
		if l.bufLevel < 0 {
			l.bufLevel = 0
		}
		l.lastDrain = now
		if l.bufLevel >= float64(l.r.cfg.LeafBuffer) {
			l.overruns++
			l.r.met.overruns.Inc()
			return // buffer overrun: the packet is lost (§3.1)
		}
		l.bufLevel++
	}
	l.total++
	if l.total == 1 {
		// Time-to-first-packet: coordination starts at virtual time 0,
		// so the first arrival's timestamp is the startup delay.
		l.r.met.timeToFirstPacket.Observe(now)
		if l.r.cfg.Obs.Spans != nil {
			l.r.cfg.Obs.Spans.Add(span.Span{
				Trace: l.r.cfg.Obs.SpanTrace, ID: l.r.cfg.Obs.Spans.NextID(),
				Parent: l.r.sessionSpan, Name: "first_packet",
				Peer: -1, Start: now, End: now,
			})
		}
	}
	l.lastArrivalAt = now
	var isDup bool
	if l.recov != nil {
		before := l.recov.Recovered()
		isDup = !l.recov.Add(dm.Pkt)
		if d := l.recov.Recovered() - before; d > 0 {
			l.r.met.recovered.Add(int64(d))
		}
		l.r.met.delivered.Set(float64(l.recov.DataPresent()))
		if l.loss != nil {
			// Parity can no longer recover these: ask at once, not on the
			// next repair interval.
			if lost := l.loss.Arrive(int(from), &dm.Pkt, now, nil); lost != nil {
				l.requestRepair(lost, "gap")
			}
		}
	} else {
		key := dm.Pkt.Key()
		l.seen[key]++
		isDup = l.seen[key] > 1
	}
	if isDup {
		l.dup++
		l.r.met.arrivalsDup.Inc()
	} else if dm.Pkt.IsData() {
		l.r.met.arrivalsData.Inc()
	} else {
		l.r.met.arrivalsParity.Inc()
	}
	if l.r.measureOpen {
		l.winTotal++
		if isDup {
			l.winDup++
		} else if dm.Pkt.IsData() {
			l.winData++
		} else {
			l.winParity++
		}
	}
	if l.r.cfg.Playback && !l.playbackScheduled {
		l.playbackScheduled = true
		l.nextConsume = 1
		start := now + l.r.cfg.PlaybackDelay
		l.r.res.PlaybackStart = start
		l.r.eng.At(start, l.consume)
	}
}

// consume plays out the next data packet: it must be present (received
// or parity-recovered) by its deadline, else an underrun is counted and
// the packet is skipped — the §1 real-time constraint.
func (l *leafNode) consume() {
	k := l.nextConsume
	if k > l.r.cfg.ContentLen {
		return // playout finished
	}
	if !l.recov.HasData(k) {
		l.r.res.Underruns++
		l.r.met.underruns.Inc()
	}
	l.nextConsume++
	l.r.eng.After(1/l.r.cfg.Rate, l.consume)
}

func (l *leafNode) resetWindow() {
	l.winTotal, l.winData, l.winParity, l.winDup = 0, 0, 0, 0
}

// repairCheck is the backstop of the leaf-driven repair loop
// (Config.Repair) for what the gap rule cannot see — a gap in the
// stream's tail, every sender crashed, a repair reply lost: when no new
// data packet has arrived for a full interval and the content is
// incomplete, the leaf asks a random live peer to retransmit the missing
// packets.
func (l *leafNode) repairCheck() {
	r := l.r
	if l.loss.Complete() || l.repairRounds >= r.cfg.RepairMaxRounds {
		return // complete, or giving up
	}
	if l.recov.Present() == 0 && l.quietChecks < r.cfg.RepairMaxRounds {
		// Nothing has arrived yet: coordination and the first transmission
		// slot are still in flight, so a flat counter is a quiet period,
		// not a stall. Bounded by RepairMaxRounds so a run where no packet
		// ever arrives still falls through to the stall path below (and
		// repair, then give-up) instead of rescheduling forever.
		l.quietChecks++
		r.eng.After(r.cfg.RepairInterval, l.repairCheck)
		return
	}
	if cur := int64(l.recov.Present()); cur != l.lastProgress {
		l.lastProgress = cur
		r.eng.After(r.cfg.RepairInterval, l.repairCheck)
		return // still flowing; check again later
	}
	l.repairRounds++
	missing := l.loss.Missing()
	// Delivery stalled: record how long the leaf has been starved and
	// open a repair wave in the trace.
	now := r.eng.Now()
	r.met.stallDuration.Observe(now - l.lastArrivalAt)
	if r.cfg.Obs.Spans != nil {
		r.cfg.Obs.Spans.Add(span.Span{
			Trace: r.cfg.Obs.SpanTrace, ID: r.cfg.Obs.Spans.NextID(),
			Parent: r.sessionSpan, Name: "stall", Peer: -1,
			Start: l.lastArrivalAt, End: now,
			Detail: fmt.Sprintf("%d missing", len(missing)),
		})
	}
	missing = missing[:min(len(missing), repairBatch)]
	l.loss.Requested(missing[len(missing)-1])
	if l.requestRepair(missing, "stall") {
		r.eng.After(r.cfg.RepairInterval, l.repairCheck)
	}
}

// repairBatch bounds the indices one repair request names.
const repairBatch = 64

// requestRepair asks random live peers to retransmit the given content
// indices, repairBatch per request, noting each request with its
// trigger. It reports false when no peer is alive to ask.
func (l *leafNode) requestRepair(indices []int64, trigger string) bool {
	r := l.r
	alive := make([]simnet.NodeID, 0, r.cfg.N)
	for i := 0; i < r.cfg.N; i++ {
		if !r.nw.Crashed(simnet.NodeID(i)) {
			alive = append(alive, simnet.NodeID(i))
		}
	}
	if len(alive) == 0 {
		return false
	}
	for off := 0; off < len(indices); off += repairBatch {
		batch := indices[off:min(off+repairBatch, len(indices))]
		target := alive[r.eng.Rand().Intn(len(alive))]
		r.res.RepairRequests++
		r.met.repairRequests[trigger].Inc()
		r.note(int(engine.LeafID), flight.Event{Dir: flight.DirDriver, Type: "repair_request", Other: int(target), N: len(batch), Note: trigger})
		r.nw.Send(r.leafID(), target, repairMsg{Indices: batch})
	}
	return true
}
