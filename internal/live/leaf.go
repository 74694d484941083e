package live

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"p2pmss/internal/content"
	"p2pmss/internal/des"
	"p2pmss/internal/engine"
	"p2pmss/internal/parity"
	"p2pmss/internal/span"
	"p2pmss/internal/transport"
)

// LeafConfig configures a live leaf peer.
type LeafConfig struct {
	// Roster lists the contents peers' addresses.
	Roster []string
	// SessionRoster, when non-nil, is the session's full membership
	// (typically Roster plus the leaf's own node) stamped into every
	// content request, so nodes that resolved nothing statically can
	// reconstruct the session's peer numbering from the request itself.
	// Leave nil for statically configured sessions — the requests stay
	// byte-identical to the pre-discovery wire format.
	SessionRoster []string
	// H is how many peers the leaf initially selects.
	H int
	// Interval is the parity interval h.
	Interval int
	// Rate is the content rate in packets per second.
	Rate float64
	// ContentID names the content to request (peers with a Store serve
	// by ID; empty matches a peer's single content).
	ContentID string
	// ContentSize and PacketSize describe the expected content.
	ContentSize, PacketSize int
	// RepairAfter enables repair (zero disables it). A missing packet
	// parity provably cannot recover is requested as soon as an arrival
	// shows it; RepairAfter is how long a silent sender still holds that
	// gap rule back, and how long the leaf waits without progress before
	// its backstop round asks for everything still missing (four times
	// as long before the first packet). Stalls are checked for every
	// RepairAfter/2, until 20 RepairAfter periods pass without progress.
	RepairAfter time.Duration
	// RequestRetry, when positive, re-sends the content request to every
	// selected peer not yet heard from, once per interval, at most five
	// times: Start fails a slot over on a send error, but a datagram
	// transport loses a request silently. Zero disables re-sends.
	RequestRetry time.Duration
	// Session scopes the leaf to one streaming session (see
	// PeerConfig.Session).
	Session SessionID
	// Seed seeds peer selection; 0 uses the clock.
	Seed int64
	// Obs bundles the leaf's observers in the struct shared with the
	// simulation: Metrics receives the leaf's counters and
	// delivery-progress gauges, and Spans the root "session" span every
	// member's spans nest under (a zero SpanTrace derives the trace ID
	// from the Session id, matching the peers' derivation). Obs.Flight is
	// ignored — the leaf runs no coordination engine to record.
	Obs engine.Observability
}

// Leaf is a live leaf peer LP_s: the engine's leaf (selection, slot
// failover, request re-sends, reassembly with parity recovery and repair
// requests) on the wall clock, with the roster's addresses as its
// carrier. Its one timer is re-armed to the engine leaf's next deadline,
// so an open session parks no goroutine.
type Leaf struct {
	cfg LeafConfig
	ep  transport.Endpoint
	met leafMetrics

	mu         sync.Mutex
	core       *engine.Leaf
	asm        *content.Assembler
	total, dup int64
	// ids maps a sender's address to its peer id: its roster index, or
	// for a sender outside the roster the next id past it, assigned on
	// first sight.
	ids map[string]engine.PeerID
	// timer fires at core's next deadline; once closed it is not re-armed.
	timer  *time.Timer
	closed bool
	// introspect, when non-nil, is invoked on a Wait timeout and its
	// result appended to the error; NodeCluster.Open wires it to an
	// automatic flight+topology dump so a stalled session self-diagnoses.
	introspect func() string

	done     chan struct{}
	doneOnce sync.Once
}

// NewLeaf creates a leaf on the given transport (WithFabric, or
// WithAttach for pre-bound endpoints).
func NewLeaf(cfg LeafConfig, tr Transport) (*Leaf, error) {
	if tr == nil {
		return nil, fmt.Errorf("live: leaf needs a transport")
	}
	if cfg.H <= 0 || cfg.H > len(cfg.Roster) {
		return nil, fmt.Errorf("live: H=%d must be in 1..len(roster)=%d", cfg.H, len(cfg.Roster))
	}
	if cfg.Interval <= 0 || cfg.Rate <= 0 {
		return nil, fmt.Errorf("live: interval and rate must be positive")
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	if cfg.Obs.Spans != nil && cfg.Obs.SpanTrace == 0 {
		cfg.Obs.SpanTrace = span.DeriveTrace("live/session=" + string(cfg.Session))
	}
	l := &Leaf{
		cfg:  cfg,
		met:  newLeafMetrics(cfg.Obs.Metrics, cfg.Session),
		asm:  content.NewAssembler(cfg.ContentSize, cfg.PacketSize),
		ids:  make(map[string]engine.PeerID, len(cfg.Roster)),
		done: make(chan struct{}),
	}
	for i, addr := range cfg.Roster {
		l.ids[addr] = engine.PeerID(i)
	}
	l.core = engine.NewLeaf(engine.LeafConfig{
		N: len(cfg.Roster), H: cfg.H, Interval: cfg.Interval,
		Window: cfg.RepairAfter.Seconds(), Retry: cfg.RequestRetry.Seconds(),
		Metrics: l.met.LeafMetrics,
		Spans:   cfg.Obs.Spans, Trace: cfg.Obs.SpanTrace, Session: string(cfg.Session),
	}, des.NewRand(seed), l.asm, liveNow())
	ep, err := tr.open(l.handle)
	if err != nil {
		return nil, err
	}
	l.ep = ep
	return l, nil
}

// Addr returns the leaf's transport address.
func (l *Leaf) Addr() string { return l.ep.Name() }

// carrier is the leaf's engine.LeafCarrier: roster ids to addresses,
// requests and repairs to wire bodies.
type carrier struct{ l *Leaf }

func (c carrier) Request(to engine.PeerID, slot int, selected []engine.PeerID, ctx span.Context) error {
	l := c.l
	sel := make([]string, len(selected))
	for i, id := range selected {
		sel[i] = l.cfg.Roster[id]
	}
	return sendBody(l.ep, l.cfg.Session, l.cfg.Roster[to], typeRequest, requestBody{
		ContentID: l.cfg.ContentID, Rate: l.cfg.Rate, H: l.cfg.H, Interval: l.cfg.Interval,
		Index: slot, Selected: sel, Leaf: l.Addr(), Roster: l.cfg.SessionRoster,
	}, ctx)
}

func (c carrier) Repair(to engine.PeerID, indices []int64, _ string) error {
	l := c.l
	return sendBody(l.ep, l.cfg.Session, l.cfg.Roster[to], typeRepair, repairBody{ContentID: l.cfg.ContentID, Indices: indices, Leaf: l.Addr()}, span.Context{})
}

// Start sends the content request to H selected contents peers (DCoP/TCoP
// step 1) and arms the leaf's timer. A peer whose request cannot be
// delivered (already crashed) is failed over to an alternate from the
// roster; Start errors only when the roster is exhausted before H peers
// accept delivery.
func (l *Leaf) Start() error {
	l.mu.Lock()
	d := l.core.Start(liveNow())
	l.mu.Unlock()
	// Sent without the lock: a send may wait for a transport queue that
	// this leaf's own arrivals are draining.
	err := d.Send(carrier{l})
	l.mu.Lock()
	l.core.Started(d, liveNow())
	l.armLocked()
	l.mu.Unlock()
	return err
}

// armLocked sets the timer to the engine leaf's next deadline. Callers
// hold l.mu.
func (l *Leaf) armLocked() {
	at, ok := l.core.Deadline()
	if !ok || l.closed {
		return
	}
	wait := time.Duration((at - liveNow()) * float64(time.Second))
	if l.timer == nil {
		l.timer = time.AfterFunc(wait, l.tick)
	} else {
		l.timer.Reset(wait)
	}
}

// tick runs what the engine leaf has due — a request re-send wave, a
// stall round — and re-arms the timer once its sends are done, so a
// leaf whose sends wait on a full transport queue has at most one tick
// in flight.
func (l *Leaf) tick() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	d := l.core.Tick(liveNow())
	l.mu.Unlock()
	d.Send(carrier{l})
	l.mu.Lock()
	l.armLocked()
	l.mu.Unlock()
}

// handle processes data packets.
func (l *Leaf) handle(m transport.Msg) {
	if m.Type != typeData {
		return
	}
	var b dataBody
	if b.DecodeWire(m.Payload) != nil {
		l.met.decodeErrors.Inc()
		return
	}
	at := liveNow()
	l.mu.Lock()
	l.total++
	l.met.arrivals.Inc()
	from, ok := l.ids[m.From]
	if !ok {
		from = engine.PeerID(len(l.ids))
		l.ids[m.From] = from
	}
	have, recovered := l.asm.Have(), l.asm.Recovered()
	fresh, d := l.core.Arrive(at, from, &b.Pkt)
	if !fresh {
		l.dup++
		l.met.dups.Inc()
	}
	// The gauges move only when their value does: a parity packet that
	// completes no segment changes neither.
	if got := l.asm.Have(); got > have {
		l.met.delivered.Set(float64(got))
	}
	if got := l.asm.Recovered(); got > recovered {
		l.met.recovered.Set(float64(got))
	}
	complete := l.asm.Complete()
	l.mu.Unlock()
	d.Send(carrier{l})
	if complete {
		l.doneOnce.Do(func() { close(l.done) })
	}
}

// formatRanges compresses sorted packet indices into "a-b" spans,
// capping the output at a few spans.
func formatRanges(idx []int64, maxSpans int) string {
	var spans []string
	for i := 0; i < len(idx); i++ {
		j := i
		for i+1 < len(idx) && idx[i+1] == idx[i]+1 {
			i++
		}
		if span := fmt.Sprint(idx[j]); i > j {
			spans = append(spans, fmt.Sprintf("%s-%d", span, idx[i]))
		} else {
			spans = append(spans, span)
		}
	}
	if len(spans) == 0 {
		return "none"
	}
	if len(spans) > maxSpans {
		spans = append(spans[:maxSpans], fmt.Sprintf("+%d more spans", len(spans)-maxSpans))
	}
	return strings.Join(spans, ",")
}

// Wait blocks until the content is complete or the timeout elapses. The
// timeout error names the missing subsequences and the session members
// last seen serving them (with how long ago they went silent), so a test
// or operator can tell churn from congestion.
func (l *Leaf) Wait(timeout time.Duration) error {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-l.done:
		return nil
	case <-t.C:
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	want := (int64(l.cfg.ContentSize) + int64(l.cfg.PacketSize) - 1) / int64(l.cfg.PacketSize)
	missing := l.asm.Missing()
	// Peers that served packets but have been silent longest are the
	// presumed-crashed sources of the gaps.
	senders := l.asm.Detector().Senders()
	var silent []string
	for a, id := range l.ids {
		if int(id) < len(senders) && senders[id].Heard() {
			silent = append(silent, a)
		}
	}
	last := func(a string) parity.Sender { return senders[l.ids[a]] }
	sort.Slice(silent, func(i, j int) bool { return last(silent[i]).LastHeard < last(silent[j]).LastHeard })
	var who []string
	for _, a := range silent[:min(len(silent), 4)] {
		ago := time.Duration((liveNow() - last(a).LastHeard) * float64(time.Second)).Round(time.Millisecond)
		who = append(who, fmt.Sprintf("%s (last heard %s ago, served up to #%d)", a, ago, int64(last(a).MaxPos)))
	}
	served := "no data packets received"
	if len(who) > 0 {
		served = strings.Join(who, "; ")
	}
	err := fmt.Errorf("live: timeout with %d/%d packets (%d arrivals, %d dup); missing %s; sources: %s",
		l.asm.Have(), want, l.total, l.dup, formatRanges(missing, 6), served)
	if l.introspect != nil {
		if extra := l.introspect(); extra != "" {
			err = fmt.Errorf("%w; %s", err, extra)
		}
	}
	return err
}

// Done returns a channel closed when reassembly completes. The leaf's
// results (Bytes, Stats) stay readable afterwards, even if the session
// state is reaped from its node.
func (l *Leaf) Done() <-chan struct{} { return l.done }

// Bytes returns the reassembled content once complete. The result is
// the leaf's assembler buffer, not a copy: read-only, and written by
// nothing once the content is complete.
func (l *Leaf) Bytes() ([]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.asm.Bytes()
}

// Stats reports arrivals, duplicates and parity recoveries so far.
func (l *Leaf) Stats() (total, dup int64, recovered int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total, l.dup, l.asm.Recovered()
}

// Progress returns how many data packets are present.
func (l *Leaf) Progress() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.asm.Have()
}

// Close stops the leaf, ending the session's root span.
func (l *Leaf) Close() error {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		if l.timer != nil {
			l.timer.Stop()
		}
		l.core.Close(liveNow())
	}
	l.mu.Unlock()
	return l.ep.Close()
}
