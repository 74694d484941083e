package live

import (
	"fmt"
	"math"
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

// Leaf is a live leaf peer LP_s: the engine's leaf (selection, slot
// failover, request re-sends, reassembly with parity recovery and repair
// requests) on the wall clock, with the roster's addresses as its
// carrier. Its one timer is re-armed to the engine leaf's next deadline,
// so an open session parks no goroutine. Only Node.Open builds one.
type Leaf struct {
	n  *Node
	ep transport.Endpoint // the node's endpoint
	// sc is the session as Open resolved it: ID, H, Interval and Seed set.
	sc SessionConfig
	// roster lists the serving peers' addresses in engine peer id order;
	// carried is the session membership stamped into every request when
	// the node resolves rosters dynamically (nil on static sessions).
	roster, carried []string
	met             leafMetrics

	mu         sync.Mutex
	core       *engine.Leaf
	asm        *content.Assembler
	total, dup int64
	// ids maps a sender's address to its peer id: its roster index, or
	// for a sender outside the roster the next id past it, assigned on
	// first sight.
	ids map[string]engine.PeerID
	// timer fires at core's next deadline, armed (+Inf when the timer is
	// not set); once closed it is not re-armed.
	timer  *time.Timer
	armed  float64
	closed bool
	// introspect, when non-nil, is invoked on a Wait timeout and its
	// result appended to the error; NodeCluster.Open wires it to an
	// automatic flight+topology dump so a stalled session self-diagnoses.
	introspect func() string

	done     chan struct{}
	doneOnce sync.Once
}

// newLeaf builds node n's leaf of session sc.ID, sending from the node's
// endpoint ep. Its engine leaf draws from PeerSeed(sc.Seed, LeafID), the
// simulator's seeding of the leaf.
func newLeaf(n *Node, ep transport.Endpoint, sc SessionConfig, roster, carried []string) *Leaf {
	l := &Leaf{
		n: n, ep: ep, sc: sc, roster: roster, carried: carried,
		met:  newLeafMetrics(n.cfg.Obs.Metrics, sc.ID),
		asm:  content.NewAssembler(sc.ContentSize, sc.PacketSize),
		ids:  make(map[string]engine.PeerID, len(roster)),
		done: make(chan struct{}),
	}
	for i, addr := range roster {
		l.ids[addr] = engine.PeerID(i)
	}
	o := n.sessionObs(sc.ID)
	l.core = engine.NewLeaf(engine.LeafConfig{
		N: len(roster), H: sc.H, Interval: sc.Interval,
		Window: sc.RepairAfter.Seconds(), Retry: sc.RequestRetry.Seconds(),
		Metrics: l.met.LeafMetrics,
		Spans:   o.Spans, Trace: o.SpanTrace, Session: string(sc.ID),
	}, des.NewRand(engine.PeerSeed(sc.Seed, engine.LeafID)), l.asm, liveNow())
	return l
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
		sel[i] = l.roster[id]
	}
	return sendBody(l.ep, l.sc.ID, l.roster[to], typeRequest, requestBody{
		ContentID: l.sc.ContentID, Rate: l.sc.Rate, H: l.sc.H, Interval: l.sc.Interval,
		Index: slot, Selected: sel, Leaf: l.Addr(), Roster: l.carried,
	}, ctx)
}

func (c carrier) Repair(to engine.PeerID, indices []int64, _ string) error {
	l := c.l
	return sendBody(l.ep, l.sc.ID, l.roster[to], typeRepair, repairBody{ContentID: l.sc.ContentID, Indices: indices, Leaf: l.Addr()}, span.Context{})
}

// start sends the content request to H selected contents peers
// (DCoP/TCoP step 1) and arms the leaf's timer. A peer whose request
// cannot be delivered (already crashed) is failed over to an alternate
// from the roster; start errors only when the roster is exhausted
// before H peers accept delivery.
func (l *Leaf) start() error {
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
		l.armed = math.Inf(1)
		return
	}
	l.armed = at
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
	if due, ok := l.core.Deadline(); ok && due < l.armed {
		l.armLocked() // the end of the stream moved the deadline earlier
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
	want := (int64(l.sc.ContentSize) + int64(l.sc.PacketSize) - 1) / int64(l.sc.PacketSize)
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

// Close stops the leaf, ending the session's root span, and detaches
// its session from the node.
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
	l.n.detach(l.sc.ID, nil, l)
	return nil
}
