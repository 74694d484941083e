package live

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"p2pmss/internal/content"
	"p2pmss/internal/des"
	"p2pmss/internal/engine"
	"p2pmss/internal/metrics"
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
	// as long before the first packet).
	RepairAfter time.Duration
	// RequestRetry, when positive, re-sends the initial content request
	// to every selected peer the leaf has not yet heard a data packet
	// from, once per interval. Start's send-error failover only covers
	// connection-oriented transports: a datagram transport loses a
	// request silently (Send returns nil), leaving the slot's whole
	// division untransmitted — more loss than parity can absorb.
	// Re-sent requests are idempotent at the peers (an already-active
	// peer ignores them). Zero disables the deadline; the loop gives up
	// after requestRetryWaves re-sends.
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

// Leaf is a live leaf peer LP_s: it requests a content from H contents
// peers, reassembles arrivals (with parity recovery), and issues repair
// requests — for gaps parity cannot close, and for stalled subsequences —
// to the session members it most recently heard from (the likeliest
// survivors after churn).
type Leaf struct {
	cfg LeafConfig
	ep  transport.Endpoint
	met leafMetrics

	mu    sync.Mutex
	rng   *rand.Rand
	asm   *content.Assembler
	total int64
	dup   int64
	// loss is the assembler's missing set and, when repair is on, the
	// repair policy: the gap rule, the stall backstop and the target
	// order. Its per-sender entries record when each sender was last heard
	// and how far its stream has come, which also names the
	// presumed-crashed peers in Wait's timeout error. senders maps a
	// sender's address to its detector slot: its roster index, or a slot
	// past the roster for a sender outside it.
	loss    *parity.LossDetector
	senders map[string]int
	// sessionSpan is the root span of the session's trace, opened at
	// Start; sessionStart/firstAt feed the session span and the
	// time-to-first-packet observation.
	sessionSpan  span.SpanID
	sessionStart float64
	gotFirst     bool
	// introspect, when non-nil, is invoked on a Wait timeout and its
	// result appended to the error; NodeCluster.Open wires it to an
	// automatic flight+topology dump so a stalled session self-diagnoses.
	introspect func() string

	done     chan struct{}
	doneOnce sync.Once

	stopCh  chan struct{}
	stopped sync.Once
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
		cfg:     cfg,
		rng:     des.NewRand(seed),
		asm:     content.NewAssembler(cfg.ContentSize, cfg.PacketSize),
		senders: make(map[string]int, len(cfg.Roster)),
		done:    make(chan struct{}),
		stopCh:  make(chan struct{}),
	}
	for i, addr := range cfg.Roster {
		l.senders[addr] = i
	}
	l.loss = l.asm.Detector()
	if cfg.RepairAfter > 0 {
		// One recovery segment per initially selected sender; a sender
		// silent for a whole stall period no longer holds the rule back.
		l.loss.Arm(cfg.Interval, cfg.H, cfg.RepairAfter.Seconds())
	}
	ep, err := tr.open(l.handle)
	if err != nil {
		return nil, err
	}
	l.ep = ep
	l.met = newLeafMetrics(cfg.Obs.Metrics, cfg.Session)
	return l, nil
}

// Addr returns the leaf's transport address.
func (l *Leaf) Addr() string { return l.ep.Name() }

// Session returns the session this leaf consumes (empty when standalone).
func (l *Leaf) Session() SessionID { return l.cfg.Session }

// send encodes body, stamps the leaf's session, and transmits.
func (l *Leaf) send(to, typ string, body transport.WireAppender) error {
	return l.sendCtx(to, typ, body, span.Context{})
}

// sendCtx is send with a causal span context stamped on the frame.
func (l *Leaf) sendCtx(to, typ string, body transport.WireAppender, ctx span.Context) error {
	return l.ep.Send(to, transport.Msg{
		Type: typ, From: l.Addr(), Session: string(l.cfg.Session),
		Trace: uint64(ctx.Trace), Span: uint64(ctx.Span),
		Payload: body.AppendWire(nil),
	})
}

// Start sends the content request to H selected contents peers (DCoP/TCoP
// step 1) and begins the repair monitor. A peer whose request cannot be
// delivered (already crashed) is failed over to an alternate from the
// roster; Start errors only when the roster is exhausted before H peers
// accept delivery.
func (l *Leaf) Start() error {
	l.mu.Lock()
	selIdx, spareIdx := engine.SelectInitial(l.rng, len(l.cfg.Roster), l.cfg.H)
	l.sessionStart = liveNow()
	var root span.Context
	if l.cfg.Obs.Spans != nil {
		// Root "session" span on the leaf track (-1); closed in Close.
		// Requests carry its context so every member's handshake nests
		// under it.
		l.sessionSpan = l.cfg.Obs.Spans.NextID()
		root = span.Context{Trace: l.cfg.Obs.SpanTrace, Span: l.sessionSpan}
	}
	sel := make([]string, len(selIdx))
	for i, id := range selIdx {
		sel[i] = l.cfg.Roster[id]
		// Expected before any request goes out: a selected peer that
		// starts a little later than the others is not a gap.
		l.loss.Expect(l.slotLocked(sel[i]), l.sessionStart)
	}
	l.mu.Unlock()
	spare := make([]string, len(spareIdx))
	for i, id := range spareIdx {
		spare[i] = l.cfg.Roster[id]
	}
	var lastErr error
	for idx := 0; idx < len(sel); idx++ {
		for {
			body := requestBody{
				ContentID: l.cfg.ContentID,
				Rate:      l.cfg.Rate,
				H:         l.cfg.H,
				Interval:  l.cfg.Interval,
				Index:     idx,
				Selected:  sel,
				Leaf:      l.Addr(),
				Roster:    l.cfg.SessionRoster,
			}
			err := l.sendCtx(sel[idx], typeRequest, body, root)
			if err == nil {
				break
			}
			lastErr = err
			l.met.failovers.Inc()
			if len(spare) == 0 {
				return fmt.Errorf("live: request slot %d: roster exhausted: %w", idx, lastErr)
			}
			sel[idx] = spare[0]
			spare = spare[1:]
			l.mu.Lock()
			l.loss.Expect(l.slotLocked(sel[idx]), liveNow())
			l.mu.Unlock()
		}
	}
	if l.cfg.RequestRetry > 0 {
		go l.requestLoop(sel, root)
	}
	if l.cfg.RepairAfter > 0 {
		go l.repairLoop()
	}
	return nil
}

// requestRetryWaves caps requestLoop's re-send waves.
const requestRetryWaves = 5

// requestLoop is the datagram-side counterpart of Start's send-error
// failover: every RequestRetry it re-sends the content request to each
// selected peer that has not yet delivered a single data packet, until
// all have or the retry budget is spent. Without it a lost request
// datagram silently killed the slot for the whole session (the
// engine's own deadlines guard the later handshake rounds, but nothing
// guarded round 1's request).
func (l *Leaf) requestLoop(sel []string, root span.Context) {
	tick := time.NewTicker(l.cfg.RequestRetry)
	defer tick.Stop()
	for wave := 0; wave < requestRetryWaves; wave++ {
		select {
		case <-l.done:
			return
		case <-l.stopCh:
			return
		case <-tick.C:
		}
		quiet := 0
		for idx, peer := range sel {
			l.mu.Lock()
			_, heard := l.senderLocked(peer)
			l.mu.Unlock()
			if heard {
				continue
			}
			quiet++
			l.met.retries.Inc()
			body := requestBody{
				ContentID: l.cfg.ContentID,
				Rate:      l.cfg.Rate,
				H:         l.cfg.H,
				Interval:  l.cfg.Interval,
				Index:     idx,
				Selected:  sel,
				Leaf:      l.Addr(),
				Roster:    l.cfg.SessionRoster,
			}
			// Errors are ignored: on a connected transport Start already
			// failed over, and on datagrams there is nothing to hear.
			_ = l.sendCtx(peer, typeRequest, body, root)
		}
		if quiet == 0 {
			return // every slot is streaming
		}
	}
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
	if !l.gotFirst {
		l.gotFirst = true
		l.met.timeToFirstPacket.Observe(at - l.sessionStart)
		if l.cfg.Obs.Spans != nil {
			l.cfg.Obs.Spans.Add(span.Span{
				Trace: l.cfg.Obs.SpanTrace, ID: l.cfg.Obs.Spans.NextID(), Parent: l.sessionSpan,
				Name: "first_packet", Peer: -1, Start: at, End: at,
			})
		}
	}
	have, recovered := l.asm.Have(), l.asm.Recovered()
	fresh := l.asm.Add(b.Pkt)
	// Indices parity can no longer recover are asked for at once, not on
	// the next stall round.
	gap := l.loss.Arrive(l.slotLocked(m.From), &b.Pkt, at, nil)
	var targets []int
	if gap != nil {
		targets = l.loss.Targets(len(l.cfg.Roster), l.rng)
	}
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
	if gap != nil {
		l.requestRepair(gap, targets, l.met.gapRepairs)
	}
	if complete {
		l.doneOnce.Do(func() { close(l.done) })
	}
}

// slotLocked returns the detector slot of a sender address: its roster
// index, or for a sender outside the roster the next slot past it,
// assigned on first sight. Callers hold l.mu.
func (l *Leaf) slotLocked(addr string) int {
	slot, ok := l.senders[addr]
	if !ok {
		slot = len(l.senders)
		l.senders[addr] = slot
	}
	return slot
}

// senderLocked returns what the detector knows of a sender address; ok
// is false for one it never heard. Callers hold l.mu.
func (l *Leaf) senderLocked(addr string) (s parity.Sender, ok bool) {
	slot, known := l.senders[addr]
	if senders := l.loss.Senders(); known && slot < len(senders) && senders[slot].Heard() {
		return senders[slot], true
	}
	return s, false
}

// requestRepair asks for the missing indices, parity.RepairBatch per
// request, trying targets (roster indices) in the detector's order and
// rotating to an alternate when one is unreachable. count is the
// trigger's request counter.
func (l *Leaf) requestRepair(missing []int64, targets []int, count *metrics.Counter) {
	t := 0
	for off := 0; off < len(missing); off += parity.RepairBatch {
		body := repairBody{ContentID: l.cfg.ContentID, Indices: missing[off:min(off+parity.RepairBatch, len(missing))], Leaf: l.Addr()}
		for tries := 0; tries < len(targets); tries++ {
			peer := l.cfg.Roster[targets[t%len(targets)]]
			t++
			count.Inc()
			if err := l.send(peer, typeRepair, body); err == nil {
				break
			}
			l.met.failovers.Inc()
		}
	}
}

// repairLoop is the leaf's repair timer: every RepairAfter/2 it asks the
// detector whether delivery has stalled, and if so requests every
// missing data packet.
func (l *Leaf) repairLoop() {
	tick := time.NewTicker(l.cfg.RepairAfter / 2)
	defer tick.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-l.stopCh:
			return
		case <-tick.C:
		}
		l.mu.Lock()
		now := liveNow()
		round, stalled := l.loss.Stall(now)
		var targets []int
		if stalled {
			l.met.stallDuration.Observe(round.StalledFor)
			if l.cfg.Obs.Spans != nil {
				l.cfg.Obs.Spans.Add(span.Span{
					Trace: l.cfg.Obs.SpanTrace, ID: l.cfg.Obs.Spans.NextID(), Parent: l.sessionSpan,
					Name: "stall", Peer: -1, Start: now - round.StalledFor, End: now,
					Detail: fmt.Sprintf("%d missing", len(round.Missing)),
				})
			}
			if round.Retry {
				l.met.retries.Inc()
			}
			targets = l.loss.Targets(len(l.cfg.Roster), l.rng)
		}
		l.mu.Unlock()
		if stalled {
			l.requestRepair(round.Missing, targets, l.met.stallRepairs)
		}
	}
}

// formatRanges compresses sorted packet indices into "a-b" spans,
// capping the output at a few spans.
func formatRanges(idx []int64, maxSpans int) string {
	if len(idx) == 0 {
		return "none"
	}
	var spans []string
	start, prev := idx[0], idx[0]
	flush := func() {
		if start == prev {
			spans = append(spans, fmt.Sprintf("%d", start))
		} else {
			spans = append(spans, fmt.Sprintf("%d-%d", start, prev))
		}
	}
	for _, k := range idx[1:] {
		if k == prev+1 {
			prev = k
			continue
		}
		flush()
		start, prev = k, k
	}
	flush()
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
	select {
	case <-l.done:
		return nil
	case <-time.After(timeout):
		l.mu.Lock()
		defer l.mu.Unlock()
		want := (int64(l.cfg.ContentSize) + int64(l.cfg.PacketSize) - 1) / int64(l.cfg.PacketSize)
		missing := l.asm.Missing()
		// Peers that served packets but have been silent longest are the
		// presumed-crashed sources of the gaps.
		type src struct {
			addr string
			ago  time.Duration
			pos  float64
		}
		var silent []src
		now := liveNow()
		for a := range l.senders {
			if s, ok := l.senderLocked(a); ok {
				ago := time.Duration((now - s.LastHeard) * float64(time.Second)).Round(time.Millisecond)
				silent = append(silent, src{a, ago, s.MaxPos})
			}
		}
		sort.Slice(silent, func(i, j int) bool { return silent[i].ago > silent[j].ago })
		if len(silent) > 4 {
			silent = silent[:4]
		}
		var who []string
		for _, s := range silent {
			who = append(who, fmt.Sprintf("%s (last heard %s ago, served up to #%d)", s.addr, s.ago, int64(s.pos)))
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
}

// Done returns a channel closed when reassembly completes. The leaf's
// results (Bytes, Stats) stay readable afterwards, even if the session
// state is reaped from its node.
func (l *Leaf) Done() <-chan struct{} { return l.done }

// Bytes returns the reassembled content once complete.
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
	l.stopped.Do(func() {
		close(l.stopCh)
		l.mu.Lock()
		if l.sessionSpan != 0 {
			l.cfg.Obs.Spans.Add(span.Span{
				Trace: l.cfg.Obs.SpanTrace, ID: l.sessionSpan,
				Name: "session", Peer: -1, Start: l.sessionStart, End: liveNow(),
				Detail: string(l.cfg.Session),
			})
		}
		l.mu.Unlock()
	})
	return l.ep.Close()
}
