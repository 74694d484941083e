package coord

import (
	"p2pmss/internal/content"
	"p2pmss/internal/des"
	"p2pmss/internal/engine"
	"p2pmss/internal/seq"
)

// transmitter is a contents peer's data-plane sender: it transmits its
// schedule (an engine.Stream; the sequence is nil on the fluid plane and
// in control-plane-only mode) to the leaf peer, one packet per time slot
// of length 1/rate (§2's slot model), and switches δ after a plan.
type transmitter struct {
	r    *runner
	node int
	st   engine.Stream
	// slotTimer sends the next packet; one timer, re-armed every slot
	// and cancelled by a restart (nil until the first packet-plane one).
	slotTimer *des.Timer
	plans     int     // switches planned; a δ event switches only its own
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
	if tx.st.Apply(h) {
		tx.restart()
	}
	tx.plans++
	r := tx.r
	sw := r.switchFree.Take()
	sw.tx, sw.plan = tx, tx.plans
	r.eng.Schedule(r.eng.Now()+r.cfg.Delta, sw)
}

// switchEvent is a planned switch in the queue, a pooled des event: it
// switches its transmitter if no later plan has superseded it.
type switchEvent struct {
	tx   *transmitter
	plan int
}

// Fire applies the switch. The record goes back to the pool first: the
// switch plans nothing.
func (sw *switchEvent) Fire() {
	tx, plan := sw.tx, sw.plan
	tx.r.switchFree.Put(sw)
	if plan == tx.plans && tx.st.Switch() {
		tx.restart()
	}
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
	if tx.slotTimer == nil {
		tx.slotTimer = tx.r.eng.NewTimer(tx.slot)
	}
	tx.slotTimer.Cancel()
	if rate <= 0 || !tx.st.More() {
		return
	}
	// Randomize the phase of the first slot so that steady-state rate
	// measurements see each stream's average rate even when the window is
	// shorter than the slot length (sending early is harmless — the
	// packets are this peer's own share).
	tx.slotTimer.After(tx.r.eng.Rand().Float64() / rate)
}

// slot sends the next packet and keeps the grid going while there is
// something to send.
func (tx *transmitter) slot() {
	tx.sendNext()
	if tx.st.More() || tx.r.cfg.Loop {
		tx.slotTimer.After(1 / tx.st.Rate())
	}
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
	tx.r.nw.sendData(tx.node, tx.r.leafID(), pkt)
}

// leafNode is the leaf peer LP_s's simulated side: core (the engine's
// leaf) selects, requests, assembles and repairs; the node enforces the
// leaf's maximum receipt rate ρ_s with a drain-at-ρ buffer (§3.1's buffer
// overrun) and measures arrival rate inside the experiment's window.
type leafNode struct {
	r    *runner
	core *engine.Leaf
	// asm is core's assembler, the arena's; nil without a packet plane.
	asm *content.Assembler
	// timer fires at the leaf's next deadline, armed (when pending).
	timer *des.Timer
	armed float64

	overruns int64

	// Buffer model (active when cfg.LeafMaxRate > 0).
	bufLevel  float64
	lastDrain float64

	// Window counters.
	winTotal, winData, winParity, winDup int64

	// Playback model (Config.Playback): consumption of data packets in
	// content order at the content rate, starting PlaybackDelay after
	// the first arrival, one packet per firing of playTimer (nil until
	// playback is scheduled).
	playTimer   *des.Timer
	nextConsume int64
}

// receive takes a data packet from the network, keeping no pointer to it.
func (l *leafNode) receive(from int, pkt *seq.Packet) {
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
	before := l.asm.Recovered()
	fresh, d := l.core.Arrive(now, engine.PeerID(from), pkt)
	if n := l.asm.Recovered() - before; n > 0 {
		l.r.met.recovered.Add(int64(n))
	}
	l.r.met.delivered.Set(float64(l.asm.Have()))
	d.Send(l)
	l.arm()
	arrivals, win := l.r.met.arrivalsParity, &l.winParity
	if !fresh {
		arrivals, win = l.r.met.arrivalsDup, &l.winDup
	} else if pkt.IsData() {
		arrivals, win = l.r.met.arrivalsData, &l.winData
	}
	arrivals.Inc()
	if l.r.measureOpen {
		l.winTotal++
		*win++
	}
	if l.r.cfg.Playback && l.playTimer == nil {
		l.playTimer = l.r.eng.NewTimer(l.consume)
		l.nextConsume = 1
		start := now + l.r.cfg.PlaybackDelay
		l.r.res.PlaybackStart = start
		l.playTimer.At(start)
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
	if !l.asm.HasData(k) {
		l.r.res.Underruns++
		l.r.met.underruns.Inc()
	}
	l.nextConsume++
	l.playTimer.After(1 / l.r.cfg.Rate)
}

func (l *leafNode) resetWindow() {
	l.winTotal, l.winData, l.winParity, l.winDup = 0, 0, 0, 0
}

// tick is the leaf's timer: it runs what the leaf has due and re-arms
// at its next deadline.
func (l *leafNode) tick() {
	l.core.Tick(l.r.eng.Now()).Send(l)
	l.arm()
}

// arm schedules the leaf's timer for its next deadline unless one is
// pending at or before it (an arrival moves the deadline earlier only
// around the end of the stream; see engine.Leaf.Deadline).
func (l *leafNode) arm() {
	if at, ok := l.core.Deadline(); ok && (!l.timer.Pending() || at < l.armed) {
		l.timer.At(at)
		l.armed = at
	}
}
