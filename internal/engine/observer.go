package engine

import (
	"p2pmss/internal/flight"
	"p2pmss/internal/metrics"
	"p2pmss/internal/span"
)

// Observability bundles every optional observer a run can attach. Both
// drivers take it as their config's Obs field, so a caller can hand one
// bundle to either; it lives here because the engine is the one package
// both drivers already import and it already imports all three observer
// packages. The zero value attaches nothing. All observers are strictly
// passive: none of them feeds back into protocol behavior, so an
// instrumented run is event-for-event identical to a bare one.
type Observability struct {
	// Metrics, when non-nil, registers and updates the run's counters,
	// gauges and histograms on the registry.
	Metrics *metrics.Registry
	// Spans, when non-nil, collects causal spans (handshake rounds,
	// confirmation waves, commits, hand-offs, streaming, leaf stalls).
	Spans *span.Collector
	// SpanTrace is the trace (session) ID spans are recorded under.
	// Zero lets each runtime derive one (from the seed in the sim,
	// from the session name in the live runtime).
	SpanTrace span.TraceID
	// Flight, when non-nil, records every peer's engine event/effect
	// stream into per-peer flight rings — the one event log both
	// runtimes write, rendered by cmd/msstrace and diffed by
	// flight.FirstDivergence.
	Flight *flight.Set
}

// PeerMetrics are a Peer's instrument handles, fed by its Observer. The
// driver registers them; nil ones count nothing (the metrics package's
// nil-receiver contract).
type PeerMetrics struct {
	// Activations counts Activate effects, Handoffs the packets handed
	// off (the Given part of each Handoff), Failovers the Absorb effects
	// (shares re-absorbed because a child could not be reached) and
	// Retries the alternate peers contacted (Outcome.Retried).
	Activations, Handoffs, Failovers, Retries *metrics.Counter
	// HandshakeRTT observes each completed TCoP confirmation wave
	// (control out → wave closed), CommitLatency the first control of a
	// handshake round out → commits sent, and RetryWaveDepth how many
	// confirmation waves (1 = no retries) a finalized round took.
	HandshakeRTT, CommitLatency, RetryWaveDepth *metrics.Histogram
}

// Observer folds one peer's event/effect stream into every observer the
// run attached: causal spans and the latency histograms, the peer's
// flight ring and its counters. It is driver-side instrumentation: the
// driver calls Observe once per Peer.Handle, between Handle and applying
// the effects, and Finish once at shutdown; the protocol logic never
// knows it exists.
//
// Spans cover the units the paper names (handshake rounds, confirmation
// retry waves, commits, hand-offs, per-peer streaming), and Observe
// stamps outgoing messages with the span context their receiver should
// nest under. Flight records carry driver-independent identities (type,
// counterpart, round, magnitude), so a simulated and a live run of the
// same seed produce diffable tracks (see flight.FirstDivergence).
//
// A nil *Observer observes nothing: Observe and Finish return at once,
// with zero allocations (bench_span_test.go, bench_flight_test.go).
// Observability.Observer returns nil when nothing is attached, so the
// drivers keep their call sites unconditional.
type Observer struct {
	met     PeerMetrics
	retried int // Outcome.Retried as of the last Observe
	rec     *flight.Recorder

	// tracing is set when spans or the latency histograms are on.
	tracing bool
	col     *span.Collector
	trace   span.TraceID
	peer    int

	// Open handshake round (TCoP): the enclosing "handshake" span and
	// the currently outstanding "confirm_wave" under it. The open flags
	// are tracked separately from the span IDs so the latency
	// histograms still fire in metrics-only mode (nil collector, whose
	// NextID is always 0).
	hsOpen    bool
	hs        span.SpanID
	hsParent  span.SpanID
	hsStart   float64
	waveOpen  bool
	wave      span.SpanID
	waveStart float64
	waveDepth int

	// Per-peer streaming span, opened at first activation.
	streaming   bool
	streamStart float64
}

// Observer returns peer's observer: spans on o.Spans under o.SpanTrace,
// flight records on peer's ring in session, and met. Returns nil when
// none of them is attached.
func (o Observability) Observer(session string, peer PeerID, met PeerMetrics) *Observer {
	rec := o.Flight.Recorder(session, int(peer))
	if o.Spans == nil && rec == nil && met == (PeerMetrics{}) {
		return nil
	}
	return &Observer{
		met: met, rec: rec,
		tracing: o.Spans != nil || met.HandshakeRTT != nil || met.CommitLatency != nil || met.RetryWaveDepth != nil,
		col:     o.Spans, trace: o.SpanTrace, peer: int(peer),
	}
}

// Observe folds one Handle call: p is the peer that just handled ev
// (already advanced), parent is the causal context the event arrived
// under (the span stamped on the triggering message, or zero; a
// SendFailed takes the one stamped on its message instead), and effs is
// Handle's result. now is the driver's current time.
func (o *Observer) Observe(p *Peer, now float64, ev Event, parent span.Context, effs []Effect) {
	if o == nil {
		return
	}
	if f, ok := ev.(*SendFailed); ok {
		parent = msgSpan(f.Msg)
	}
	if o.tracing {
		o.spans(p, now, parent.Span, effs)
	}
	if o.rec != nil {
		o.record(now, ev, effs)
	}
	for _, e := range effs {
		switch e := e.(type) {
		case *Activate:
			o.met.Activations.Inc()
		case *Handoff:
			o.met.Handoffs.Add(int64(len(e.Given)))
		case *Absorb:
			o.met.Failovers.Inc()
		}
	}
	if p.retried > o.retried {
		o.met.Retries.Add(int64(p.retried - o.retried))
		o.retried = p.retried
	}
}

// Finish closes the long-lived spans at driver shutdown (or simulation
// end): any dangling handshake state and the per-peer streaming span.
func (o *Observer) Finish(now float64) {
	if o == nil || !o.tracing {
		return
	}
	o.closeWave(now)
	o.closeHandshake(now)
	if o.streaming {
		id := o.col.NextID()
		o.col.Add(span.Span{
			Trace: o.trace, ID: id,
			Name: "stream", Peer: o.peer, Start: o.streamStart, End: now,
		})
		o.streaming = false
	}
}

// spans derives the spans of one Handle call from local, the span the
// event arrived under, and stamps the outgoing protocol messages in effs
// in place.
func (o *Observer) spans(p *Peer, now float64, local span.SpanID, effs []Effect) {
	// Pre-scan the batch: the span structure depends on which effect
	// kinds appear together (e.g. controls+deadline = a new wave).
	var nCtl, nCommit int
	hasConfirmTimer := false
	hasReleaseTimer := false
	for _, e := range effs {
		switch eff := e.(type) {
		case *Send:
			switch eff.Msg.(type) {
			case *MsgControl:
				nCtl++
			case *MsgCommit:
				nCommit++
			}
		case *SetTimer:
			switch eff.ID.Kind {
			case TimerConfirm:
				hasConfirmTimer = true
			case TimerRelease:
				hasReleaseTimer = true
			}
		}
	}

	// Structural spans first (activation/merge), so the handshake the
	// same batch opens nests under them.
	var ctlCtx, commitCtx, confirmCtx span.Context
	for _, e := range effs {
		switch e.(type) {
		case *Activate:
			local = o.instant(now, "activate", local).Span
			if !o.streaming {
				o.streaming = true
				o.streamStart = now
			}
		case *Merge:
			local = o.instant(now, "merge", local).Span
		}
	}

	if nCtl > 0 {
		if hasConfirmTimer {
			// A fresh confirmation wave: tcopSelect or a timeout retry
			// wave. Open the enclosing handshake on the first one.
			if !o.hsOpen {
				o.hsOpen = true
				o.hs = o.col.NextID()
				o.hsParent = local
				o.hsStart = now
			} else {
				o.closeWave(now)
			}
			o.waveOpen = true
			o.wave = o.col.NextID()
			o.waveStart = now
			o.waveDepth++
			ctlCtx = span.Context{Trace: o.trace, Span: o.wave}
		} else if o.hsOpen {
			// Failover control inside the open wave (refusal or send
			// failure pulled an alternate).
			ctlCtx = span.Context{Trace: o.trace, Span: o.wave}
		} else {
			// DCoP select: no handshake, controls carry the assignment.
			ctlCtx = o.instant(now, "select", local)
		}
	}

	if nCommit > 0 {
		commitParent := local
		if o.waveOpen {
			commitParent = o.wave
		}
		if o.hsOpen {
			o.met.CommitLatency.Observe(now - o.hsStart)
			o.met.RetryWaveDepth.Observe(float64(o.waveDepth))
		}
		o.closeWave(now)
		commitCtx = o.instant(now, "commit", commitParent)
		o.closeHandshake(now)
	}

	// Remaining instants and message stamping (in place: message nodes
	// are unique per send, never shared across effects).
	for _, e := range effs {
		switch eff := e.(type) {
		case *Send:
			switch m := eff.Msg.(type) {
			case *MsgControl:
				m.Span = ctlCtx
			case *MsgCommit:
				m.Span = commitCtx
			case *MsgConfirm:
				if confirmCtx == (span.Context{}) {
					if m.Accept && hasReleaseTimer {
						// Adoption: the child accepted a prospective
						// parent and armed the commit-release guard.
						confirmCtx = o.instant(now, "adopt", local)
					} else {
						confirmCtx = span.Context{Trace: o.trace, Span: local}
					}
				}
				m.Span = confirmCtx
			}
		case *Handoff:
			o.instant(now, "handoff", local)
		case *Absorb:
			o.instant(now, "absorb", local)
		case *ServeRepair:
			o.instant(now, "repair_serve", local)
		}
	}

	// A handshake round can end without commits (every candidate
	// refused, failed, or stayed silent): the engine marked the round
	// final with nothing to send, so close the dangling spans here.
	if nCommit == 0 && o.hsOpen && !p.cfg.DCoP && p.final {
		o.closeWave(now)
		o.closeHandshake(now)
	}
}

// instant records a zero-duration span and returns its context for
// stamping messages.
func (o *Observer) instant(now float64, name string, parent span.SpanID) span.Context {
	id := o.col.NextID()
	o.col.Add(span.Span{
		Trace: o.trace, ID: id, Parent: parent,
		Name: name, Peer: o.peer, Start: now, End: now,
	})
	return span.Context{Trace: o.trace, Span: id}
}

// closeWave emits the outstanding confirmation wave as a span ending
// now and observes its duration as handshake RTT.
func (o *Observer) closeWave(now float64) {
	if !o.waveOpen {
		return
	}
	o.col.Add(span.Span{
		Trace: o.trace, ID: o.wave, Parent: o.hs,
		Name: "confirm_wave", Peer: o.peer, Start: o.waveStart, End: now,
	})
	o.met.HandshakeRTT.Observe(now - o.waveStart)
	o.waveOpen = false
	o.wave = 0
}

// closeHandshake emits the enclosing handshake span ending now.
func (o *Observer) closeHandshake(now float64) {
	if !o.hsOpen {
		return
	}
	o.col.Add(span.Span{
		Trace: o.trace, ID: o.hs, Parent: o.hsParent,
		Name: "handshake", Peer: o.peer, Start: o.hsStart, End: now,
	})
	o.hsOpen = false
	o.hs = 0
	o.waveDepth = 0
}

// msgSpan is the causal context stamped on an engine protocol message
// (zero for messages that carry none).
func msgSpan(m any) span.Context {
	switch msg := m.(type) {
	case *MsgControl:
		return msg.Span
	case *MsgConfirm:
		return msg.Span
	case *MsgCommit:
		return msg.Span
	}
	return span.Context{}
}

// record writes the handled event and every returned effect, in order,
// to the flight ring, stamped with now.
func (o *Observer) record(now float64, ev Event, effs []Effect) {
	e := flight.Event{T: now, Dir: "ev"}
	switch v := ev.(type) {
	case *Request:
		e.Type = "request"
		e.Other = int(LeafID)
		e.Round = v.Round
		e.N = len(v.Assigned)
	case *Control:
		e.Type = "control"
		e.Other = int(v.Msg.Parent)
		e.Round = v.Msg.Round
		e.N = len(v.Msg.AssignedSeq)
	case *Confirm:
		if v.Msg.Accept {
			e.Type = "confirm_ok"
		} else {
			e.Type = "confirm_no"
		}
		e.Other = int(v.Msg.Child)
		e.Round = v.Msg.Round
	case *Commit:
		e.Type = "commit"
		e.Other = int(v.Msg.Parent)
		e.Round = v.Msg.Round
		e.N = len(v.Msg.AssignedSeq)
	case *TimerFired:
		e.Type = timerType("timer_", v.Timer.Kind)
		e.Other = int(v.Timer.Peer)
		e.N = v.Timer.Gen
	case *SendFailed:
		e.Type = "send_failed" + msgSuffix(v.Msg)
		e.Other = int(v.To)
	case *Join:
		e.Type = "join"
		e.Other = int(v.Joiner)
	case *Repair:
		e.Type = "repair"
		e.Other = int(LeafID)
		e.N = len(v.Indices)
	default:
		e.Type = "unknown"
	}
	o.rec.Record(e)

	for _, eff := range effs {
		f := flight.Event{T: now, Dir: "eff"}
		switch v := eff.(type) {
		case *Send:
			f.Other = int(v.To)
			switch m := v.Msg.(type) {
			case *MsgControl:
				f.Type = "send_control"
				f.Round = m.Round
				f.N = len(m.AssignedSeq)
			case *MsgConfirm:
				if m.Accept {
					f.Type = "send_confirm_ok"
				} else {
					f.Type = "send_confirm_no"
				}
				f.Round = m.Round
			case *MsgCommit:
				f.Type = "send_commit"
				f.Round = m.Round
				f.N = len(m.AssignedSeq)
			default:
				f.Type = "send"
			}
		case *SetTimer:
			f.Type = timerType("set_timer_", v.ID.Kind)
			f.Other = int(v.ID.Peer)
			f.N = v.ID.Gen
		case *Activate:
			f.Type = "activate"
			f.Round = v.Round
			f.N = len(v.Seq)
		case *Merge:
			f.Type = "merge"
			f.Round = v.Round
			f.N = len(v.Seq)
		case *Handoff:
			f.Type = "handoff"
			f.Other = v.Mark
			f.N = len(v.Given)
		case *Absorb:
			f.Type = "absorb"
			f.N = len(v.Seq)
		case *ServeRepair:
			f.Type = "serve_repair"
			f.Other = int(LeafID)
			f.N = len(v.Indices)
		default:
			f.Type = "unknown"
		}
		o.rec.Record(f)
	}
}

// timerType names a timer kind under the given prefix.
func timerType(prefix string, k TimerKind) string {
	switch k {
	case TimerConfirm:
		return prefix + "confirm"
	case TimerRelease:
		return prefix + "release"
	}
	return prefix + "other"
}

// msgSuffix names the message kind a SendFailed carried.
func msgSuffix(m any) string {
	switch m.(type) {
	case *MsgControl:
		return "_control"
	case *MsgConfirm:
		return "_confirm"
	case *MsgCommit:
		return "_commit"
	}
	return ""
}
