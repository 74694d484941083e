package coord

import (
	"errors"

	"p2pmss/internal/content"
	"p2pmss/internal/des"
	"p2pmss/internal/engine"
	"p2pmss/internal/flight"
	"p2pmss/internal/span"
)

// This file is the des driver for the shared coordination engine
// (internal/engine): it stamps virtual-time snapshots onto events,
// turns SetTimer effects into des events, Send effects into network
// messages (feeding send failures back into the engine so the live
// layer's churn tolerance is deterministically simulatable), and the
// data-plane effects into transmitter operations.

// coordinated drives DCoP (§3.4) or TCoP (§3.5), whose transitions all
// live in internal/engine: it starts the leaf and converts network
// messages to engine events, computing a request's initial assignment
// (which needs the runner's content and bandwidth model).
type coordinated struct {
	r    *runner
	dcop bool
}

// start builds the engine cores and performs the leaf peer's step 1:
// select H contents peers and send each a content request.
func (c *coordinated) start() {
	r := c.r
	r.initEngine(c.dcop)
	now := r.eng.Now()
	d := r.leaf.core.Start(now)
	d.Send(r.leaf) // an exhausted roster leaves its slot unstreamed
	r.leaf.core.Started(d, now)
	r.leaf.arm()
}

func (c *coordinated) deliver(p *peerNode, from int, m any) {
	r := c.r
	switch msg := m.(type) {
	case reqMsg:
		s, rate := r.initialAssignment(msg.Index, msg.Selected)
		r.dispatchCtx(p, &engine.Request{Assigned: s, Rate: rate, Selected: msg.Selected, Round: msg.Round}, msg.Span)
	case *ctlMsg:
		r.dispatchCtx(p, &engine.Control{Msg: msg}, msg.Span)
	case *confirmMsg:
		r.dispatchCtx(p, &engine.Confirm{Msg: msg}, msg.Span)
	case *commitMsg:
		r.dispatchCtx(p, &engine.Commit{Msg: msg}, msg.Span)
	}
}

// initEngine builds the engine cores, every one from the run's one
// pool, the arena's: the whole run is driven from one goroutine, so a
// node any peer released is the next one any peer takes. Called from
// the protocol's start() rather than newRunner because tests install
// protocol impls directly.
func (r *runner) initEngine(dcopMode bool) {
	ecfg := engine.Config{
		N:                r.cfg.N,
		H:                r.cfg.H,
		Interval:         r.cfg.Interval,
		FirstFanout:      r.cfg.FirstFanout,
		MarkDelta:        r.cfg.Delta,
		HandshakeTimeout: r.cfg.HandshakeTimeout,
		// An adopted child waits for the commit past two worst-case
		// control+confirm round trips before it releases the adoption.
		CommitRelease: 4*(r.cfg.Delta+r.cfg.Jitter) + 0.001,
		Retries:       r.cfg.Retries,
		DCoP:          dcopMode,
	}
	if err := ecfg.Normalize(); err != nil {
		panic(err) // unreachable: Config.normalize validated the same fields
	}
	for _, p := range r.peers {
		p.core = r.pool.NewPeer(ecfg, p.id, engine.PeerSeed(r.cfg.Seed, p.id))
		p.obs = r.cfg.Obs.Observer("", p.id, r.met.peer)
	}
}

// newLeaf builds the leaf peer around the engine's leaf, on the random
// stream the live layer seeds its leaf with, so the initial selection
// agrees. On the packet plane the leaf assembles the content, ContentLen
// 1-byte packets, in the arena's assembler.
func newLeaf(r *runner) *leafNode {
	l := &leafNode{r: r}
	l.timer = r.eng.NewTimer(l.tick)
	if r.content != nil {
		if r.asm == nil {
			r.asm = content.NewAssembler(len(r.content), 1)
		} else {
			r.asm.Reset(len(r.content), 1)
		}
		l.asm = r.asm
	}
	var window float64
	if r.cfg.Repair {
		window = r.cfg.RepairInterval
	}
	l.core = engine.NewLeaf(engine.LeafConfig{
		N: r.cfg.N, H: r.cfg.H, Interval: r.cfg.Interval,
		Window:  window,
		Metrics: r.met.leaf,
		Spans:   r.cfg.Obs.Spans, Trace: r.cfg.Obs.SpanTrace,
	}, des.NewRand(engine.PeerSeed(r.cfg.Seed, engine.LeafID)), l.asm, r.eng.Now())
	return l
}

// errCrashed is the simulated carrier's failed send: a message to a
// crashed peer is counted but discarded at delivery, and the sender
// learns now, as applyEffects tells peers with SendFailed.
var errCrashed = errors.New("coord: peer crashed")

// Request implements engine.LeafCarrier: the leaf's content request c
// (§3.4 step 1), carrying the selection when Config.LeafShares.
func (l *leafNode) Request(to engine.PeerID, slot int, selected []engine.PeerID, ctx span.Context) error {
	r := l.r
	m := reqMsg{Rate: r.cfg.Rate, Index: slot, Round: 1, Span: ctx}
	if r.cfg.LeafShares {
		m.Selected = selected
	}
	r.sendCtl(r.leafID(), int(to), m, 1)
	if r.nw.crashed[to] {
		return errCrashed
	}
	return nil
}

// Repair implements engine.LeafCarrier: one repair request, noted with
// its trigger on the leaf's flight track. One to a crashed peer is lost
// without a word, like a reply the peer never sends.
func (l *leafNode) Repair(to engine.PeerID, indices []int64, trigger string) error {
	r := l.r
	r.res.RepairRequests++
	r.note(int(engine.LeafID), flight.Event{Dir: flight.DirDriver, Type: "repair_request", Other: int(to), N: len(indices), Note: trigger})
	r.nw.send(r.leafID(), int(to), repairMsg{Indices: indices})
	return nil
}

// snapshot stamps the peer's current data-plane state.
func (r *runner) snapshot(p *peerNode) engine.Snapshot {
	snap := p.tx.st.Snapshot()
	snap.Offset = p.tx.currentOffset()
	return snap
}

// dispatch feeds one event into the peer's engine core and applies the
// resulting effects. Events with no carried causal context (timers,
// repair) enter with the zero context; the observer's own state
// supplies the nesting.
func (r *runner) dispatch(p *peerNode, ev engine.Event) {
	r.dispatchCtx(p, ev, span.Context{})
}

// dispatchCtx is dispatch with the causal context the triggering
// message carried; the observer folds the event/effect pair and stamps
// outgoing messages before they are sent.
func (r *runner) dispatchCtx(p *peerNode, ev engine.Event, parent span.Context) {
	effs := p.core.Handle(ev, r.snapshot(p))
	p.obs.Observe(p.core, r.eng.Now(), ev, parent, effs)
	r.applyEffects(p, effs)
}

// applyEffects executes the engine's effects in order. Sends to crashed
// peers feed SendFailed back into the engine (its feedback batch is
// queued behind the remaining effects, so an Absorb it produces folds
// into the switch the hand-off planned). Every consumed batch goes back
// to the peer's free lists via Release; the messages themselves stay
// alive until the network delivers (or discards) them.
func (r *runner) applyEffects(p *peerNode, effs []engine.Effect) {
	batches := append(r.batchBuf[:0], effs)
	for bi := 0; bi < len(batches); bi++ {
		for _, eff := range batches[bi] {
			switch e := eff.(type) {
			case *engine.Send:
				to := int(e.To)
				r.sendCtl(int(p.id), to, e.Msg, msgRound(e.Msg))
				if r.nw.crashed[to] {
					// The message is counted (it was transmitted) but will be
					// discarded at delivery; tell the engine now so it can
					// fail over or re-absorb deterministically.
					ev := &engine.SendFailed{To: e.To, Msg: e.Msg}
					fb := p.core.Handle(ev, r.snapshot(p))
					p.obs.Observe(p.core, r.eng.Now(), ev, span.Context{}, fb)
					if fb != nil {
						batches = append(batches, fb)
					}
				}
			case *engine.SetTimer:
				r.setTimer(p, e)
			case *engine.Activate:
				p.activate(e.Round, e.Seq, e.Rate)
			case *engine.Merge, *engine.Absorb:
				// A union a Merge carries is against the snapshot stamped on
				// this very Handle call, which is still the transmitter's state.
				if p.tx.st.Apply(eff) {
					p.tx.restart()
				}
			case *engine.Handoff:
				p.tx.plan(e)
			case *engine.ServeRepair:
				r.serveRepair(p, e.Indices)
			}
		}
	}
	for _, b := range batches {
		p.core.Release(b)
	}
	r.batchBuf = batches[:0]
}

// timerEvent is an engine timer in the queue: a pooled des event that
// hands its peer the TimerFired it carries.
type timerEvent struct {
	p  *peerNode
	ev engine.TimerFired
}

// setTimer queues the TimerFired e asks for, e.Delay from now.
func (r *runner) setTimer(p *peerNode, e *engine.SetTimer) {
	tf := r.timerFree.Take()
	tf.p, tf.ev.Timer = p, e.ID
	r.eng.Schedule(r.eng.Now()+e.Delay, tf)
}

// Fire dispatches the timer to its peer. The record goes back to the
// pool only afterwards: the peer's Handle and observer read the event
// it holds.
func (tf *timerEvent) Fire() {
	r := tf.p.r
	r.dispatch(tf.p, &tf.ev)
	r.timerFree.Put(tf)
}

// msgRound extracts the round number carried by an engine message.
func msgRound(m any) int {
	switch msg := m.(type) {
	case *ctlMsg:
		return msg.Round
	case *confirmMsg:
		return msg.Round
	case *commitMsg:
		return msg.Round
	}
	return 0
}

// mirrorOutcomes copies the engines' coordination outcomes into the
// Result, in blocks the Result owns: the arena's peers are carved again
// by the next run.
func (r *runner) mirrorOutcomes() {
	if r.peers[0].core == nil {
		return // baseline run: no engine cores
	}
	r.res.Outcomes = engine.Outcomes(len(r.peers), func(i int) *engine.Peer { return r.peers[i].core })
}
