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

	// Repair state (Config.Repair): loss is the missing set fed off the
	// recoverer and the repair policy the live leaf runs too; idle counts
	// the repair checks since Have last grew past had.
	loss *parity.LossDetector
	had  int64
	idle int
}

func newLeaf(r *runner) *leafNode {
	l := &leafNode{r: r}
	if r.cfg.TrackDelivery {
		l.recov = parity.NewSizedRecoverer(int(r.cfg.ContentLen))
	} else {
		l.seen = make(map[string]int)
	}
	if r.cfg.Repair {
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

// repairGiveUp is how many repair checks in a row without a data gain end
// the leaf's repair timer, so that a run nobody can complete quiesces.
const repairGiveUp = 20

// repairCheck is the leaf's repair timer (Config.Repair): every
// RepairInterval it asks the detector whether delivery has stalled, and
// if so requests every missing packet, until the content is complete or
// repairGiveUp checks have passed without a data gain.
func (l *leafNode) repairCheck() {
	r := l.r
	if l.loss.Complete() {
		return
	}
	if have := l.loss.Have(); have > l.had {
		l.had, l.idle = have, 0
	} else if l.idle++; l.idle >= repairGiveUp {
		return
	}
	now := r.eng.Now()
	if round, ok := l.loss.Stall(now); ok {
		// Record how long the leaf has been starved and open a repair wave
		// in the trace.
		r.met.stallDuration.Observe(round.StalledFor)
		if r.cfg.Obs.Spans != nil {
			r.cfg.Obs.Spans.Add(span.Span{
				Trace: r.cfg.Obs.SpanTrace, ID: r.cfg.Obs.Spans.NextID(),
				Parent: r.sessionSpan, Name: "stall", Peer: -1,
				Start: now - round.StalledFor, End: now,
				Detail: fmt.Sprintf("%d missing", len(round.Missing)),
			})
		}
		l.requestRepair(round.Missing, "stall")
	}
	r.eng.After(r.cfg.RepairInterval, l.repairCheck)
}

// requestRepair asks for the given content indices, parity.RepairBatch
// per request, round-robin over the detector's target order, noting each
// request with its trigger.
func (l *leafNode) requestRepair(indices []int64, trigger string) {
	r := l.r
	targets := l.loss.Targets(r.cfg.N, r.eng.Rand())
	for i := 0; i*parity.RepairBatch < len(indices); i++ {
		batch := indices[i*parity.RepairBatch : min((i+1)*parity.RepairBatch, len(indices))]
		target := simnet.NodeID(targets[i%len(targets)])
		r.res.RepairRequests++
		r.met.repairRequests[trigger].Inc()
		r.note(int(engine.LeafID), flight.Event{Dir: flight.DirDriver, Type: "repair_request", Other: int(target), N: len(batch), Note: trigger})
		r.nw.Send(r.leafID(), target, repairMsg{Indices: batch})
	}
}
