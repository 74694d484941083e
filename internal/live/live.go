// Package live runs the paper's multi-source streaming on real
// goroutines and wall-clock time: contents peers are concurrent
// processes exchanging binary control packets over a transport (in-memory,
// TCP or UDP), coordinating with TCoP (§3.5, the default) or DCoP (§3.4) and
// streaming packet payloads to a leaf peer, which reassembles the content
// bytes with parity recovery and a repair round for anything still
// missing (e.g. after a peer crash).
//
// TCoP is the default live protocol because its confirm/commit handshake
// makes stream hand-offs exact — no packet is delegated to a child that
// declines, so the peers' subsequences partition the enhanced content
// and delivery is complete without relying on duplicates. DCoP trades
// duplicates (deduplicated at the leaf) for one-round coordination.
//
// Coordination is churn-tolerant: every handshake round has an explicit
// deadline, a child that refuses, cannot be reached, or stays silent is
// replaced by an alternate peer under a bounded retry budget, a hand-off
// whose commit cannot be delivered is re-absorbed by the parent, and a
// peer may join an in-flight stream (Node.Join) and be handed a slice.
//
// The protocol transitions themselves live in internal/engine, shared
// with the simulator; this package is the wall-clock driver. A Peer
// decodes transport messages into engine events, translates roster
// addresses to engine peer ids, and applies the engine's effects: Send
// becomes a wire message, SetTimer a time.AfterFunc, and the data-plane
// effects go to the engine.Stream the streaming goroutine sends from.
//
// The sequences the engine divides and hands off are payload-free
// schedules, the simulator's own: controls and commits carry them as
// they are, and a share a sender filled with bytes keeps none of them.
// Payloads live at the edges only — the streaming goroutine writes each
// packet's bytes from its content copy as it sends the packet, and the
// leaf assembles them.
//
// A Node hosts a content.Store on one endpoint and multiplexes many
// concurrent sessions — serving some as a contents peer and consuming
// others as a leaf — keyed by the SessionID carried in transport.Msg.
package live

import (
	"sync"
	"time"

	"p2pmss/internal/content"
	"p2pmss/internal/des"
	"p2pmss/internal/engine"
	"p2pmss/internal/parity"
	"p2pmss/internal/seq"
	"p2pmss/internal/span"
	"p2pmss/internal/transport"
)

// liveEpoch anchors span timestamps: every participant in the process
// measures span time as seconds since this instant, so the tracks of
// one session (and of concurrent sessions) share a time base in the
// exported trace.
var liveEpoch = time.Now()

// liveNow returns the current span timestamp (seconds since liveEpoch).
func liveNow() float64 { return time.Since(liveEpoch).Seconds() }

// Message type tags.
const (
	typeRequest = "request"
	typeControl = "control"
	typeConfirm = "confirm"
	typeCommit  = "commit"
	typeData    = "data"
	typeRepair  = "repair"
	typeJoin    = "join"
	// typeAnnounce is session-less node traffic: a discovery catalog
	// announcement (internal/disco) riding the node's endpoint.
	typeAnnounce = "announce"
)

// The message bodies. Each knows its own binary wire form (wire.go;
// layouts in DESIGN.md §9); the three that can open a session on a node
// that has never seen it — request, control, commit — lead with Roster,
// so Node.sessionRosterFrom reads it without decoding the rest.

// requestBody is the leaf's content request. Roster carries the
// session's resolved membership when it was discovered dynamically
// (gossip directory) instead of configured statically: the receiving
// node cannot otherwise know which peer numbering the session runs
// under. Static sessions leave it empty.
type requestBody struct {
	Roster    []string
	ContentID string
	Rate      float64 // packets per second
	H         int
	Interval  int
	Index     int
	Selected  []string
	Leaf      string
}

// controlBody is the control packet c1 — engine.MsgControl on the wire,
// with peers named by address and the assigned sequence a payload-free
// schedule (the receiver streams it from its own content copy).
type controlBody struct {
	// Roster propagates a discovered session membership (see
	// requestBody.Roster); empty on static sessions.
	Roster    []string
	Parent    string
	View      []string
	Leaf      string
	ContentID string
	SeqOffset int
	Rate      float64
	ChildRate float64
	Children  int
	ChildIdx  int
	Round     int
	Assigned  seq.Sequence
}

// confirmBody is TCoP's confirmation cc1.
type confirmBody struct {
	Child  string
	Accept bool
	Round  int
}

// commitBody is TCoP's c2 (and the mid-stream join grant), carrying the
// child's payload-free subsequence.
type commitBody struct {
	// Roster propagates a discovered session membership (see
	// requestBody.Roster); empty on static sessions.
	Roster    []string
	Parent    string
	ContentID string
	Leaf      string
	Streams   int
	SeqOffset int
	Rate      float64
	ChildIdx  int
	Round     int
	Assigned  seq.Sequence
}

// dataBody carries one packet.
type dataBody struct {
	Pkt seq.Packet
}

// repairBody asks a peer to retransmit specific data packets.
type repairBody struct {
	ContentID string
	Leaf      string
	Indices   []int64
}

// joinBody volunteers a peer for an in-flight session: an active member
// receiving it hands the joiner a slice of its remaining stream.
type joinBody struct {
	ContentID string
	Joiner    string
}

// Protocol identifies a live coordination protocol; the names are the
// engine's, shared with the simulation layer.
type Protocol = engine.Protocol

// Peer is a live contents peer serving one session of its Node: the
// shared coordination engine plus a streaming goroutine and the
// address/payload codec between them. Only a Node builds one (a
// session-opening message, or Join), from its own resolved config.
type Peer struct {
	n   *Node
	ep  transport.Endpoint // the node's endpoint
	sid SessionID
	// roster is the session's membership; its order is the engine's peer
	// numbering, so every member runs under the same one.
	roster []string
	met    peerMetrics

	mu   sync.Mutex
	core *engine.Peer
	// obs folds the engine's event/effect stream into spans, the flight
	// ring and the peer metrics; nil when all of them are off.
	obs *engine.Observer
	// names/ids map engine peer ids to transport addresses and back.
	// Roster order defines ids 0..N-1; out-of-roster senders (mid-stream
	// joiners) get ephemeral ids >= N, which the engine tracks but never
	// adds to its bounded view.
	names []string
	ids   map[string]engine.PeerID

	content *content.Content // the content currently being served
	leaf    string
	// st is the transmission schedule the streaming goroutine sends; a
	// planned switch is applied when the next packet reaches its mark.
	st engine.Stream
	// activated is closed when the peer applies its Activate (Join
	// waits on it).
	activated chan struct{}

	// repairTo is the reply address of the repair request currently
	// being dispatched (the engine's ServeRepair effect has no driver
	// addressing).
	repairTo      string
	repairContent *content.Content

	// lastTouch is when the peer last received a message or transmitted
	// a data packet — the idle clock Quiesced reads for session reaping;
	// deadline is when the last engine timer it armed expires.
	lastTouch, deadline time.Time

	stopCh  chan struct{}
	stopped sync.Once
	wake    chan struct{}

	// Sent counts data packets transmitted (for tests/metrics).
	sent int64
}

// newPeer builds node n's serving peer of session sid under the session
// roster, sending from the node's endpoint ep. Its engine draws from
// PeerSeed(SessionSeed(node seed, sid), roster index), the simulator's
// seeding of the same peer.
func newPeer(n *Node, ep transport.Endpoint, sid SessionID, roster []string) *Peer {
	p := &Peer{
		n: n, ep: ep, sid: sid, roster: roster,
		met:       newPeerMetrics(n.cfg.Obs.Metrics, ep.Name(), sid),
		ids:       make(map[string]engine.PeerID, len(roster)),
		activated: make(chan struct{}),
		stopCh:    make(chan struct{}),
		wake:      make(chan struct{}, 1),
		lastTouch: time.Now(),
	}
	p.mu.Lock()
	for _, a := range roster {
		p.idOfLocked(a)
	}
	self := p.idOfLocked(ep.Name())
	ecfg := n.engine
	ecfg.N = len(roster)
	p.core = engine.NewPeer(ecfg, self, des.NewRand(engine.PeerSeed(n.sessionSeed(sid), self)))
	p.obs = n.sessionObs(sid).Observer(string(sid), self, p.met.PeerMetrics)
	p.mu.Unlock()
	go p.streamLoop()
	return p
}

// Addr returns the peer's transport address.
func (p *Peer) Addr() string { return p.ep.Name() }

// Session returns the session this peer serves.
func (p *Peer) Session() SessionID { return p.sid }

// Sent returns the number of data packets transmitted so far.
func (p *Peer) Sent() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sent
}

// Active reports whether the peer is transmitting.
func (p *Peer) Active() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.core.Active()
}

// Quiesced reports whether this peer's work is visibly over: it neither
// received a message nor sent a packet for at least grace, and either it
// transmitted its whole stream (no hand-off pending) or it never
// activated — a request for a content the node does not hold, a TCoP
// child whose commit was lost — and every handshake deadline it armed
// has passed. Node session reaping polls this.
func (p *Peer) Quiesced(now time.Time, grace time.Duration) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if now.Sub(p.lastTouch) < grace {
		return false
	}
	if !p.core.Active() {
		return !now.Before(p.deadline)
	}
	return !p.st.Snapshot().Pending && !p.st.More()
}

// Outcome returns the peer's coordination outcome (parent, children,
// assignment union) with peers numbered by roster order — the live side
// of the sim/live conformance comparison.
func (p *Peer) Outcome() engine.Outcome {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.core.Outcome()
}

// Close stops the peer (crash-stop: no goodbye messages) and detaches
// its session from the node.
func (p *Peer) Close() error {
	p.stopped.Do(func() {
		close(p.stopCh)
		p.mu.Lock()
		p.obs.Finish(liveNow())
		p.mu.Unlock()
	})
	p.n.detach(p.sid, p, nil)
	return nil
}

// sendBody encodes body and transmits it from ep, stamped with the
// session and a causal span context (the zero context leaves the frame
// byte-identical to an untraced send). The error is surfaced so callers
// can fail over to an alternate peer.
func sendBody(ep transport.Endpoint, sid SessionID, to, typ string, body transport.WireAppender, ctx span.Context) error {
	return ep.Send(to, transport.Msg{
		Type: typ, From: ep.Name(), Session: string(sid),
		Trace: uint64(ctx.Trace), Span: uint64(ctx.Span),
		Payload: body.AppendWire(nil),
	})
}

// ---- address/id codec ---------------------------------------------------

// idOfLocked resolves an address to an engine peer id, appending an
// ephemeral id for addresses outside the roster. Callers hold p.mu.
func (p *Peer) idOfLocked(addr string) engine.PeerID {
	if id, ok := p.ids[addr]; ok {
		return id
	}
	id := engine.PeerID(len(p.names))
	p.names = append(p.names, addr)
	p.ids[addr] = id
	return id
}

// addrOfLocked resolves an engine peer id back to its address.
func (p *Peer) addrOfLocked(id engine.PeerID) string {
	if id >= 0 && int(id) < len(p.names) {
		return p.names[id]
	}
	return ""
}

func (p *Peer) idsOfLocked(addrs []string) []engine.PeerID {
	out := make([]engine.PeerID, len(addrs))
	for i, a := range addrs {
		out[i] = p.idOfLocked(a)
	}
	return out
}

func (p *Peer) addrsOfLocked(ids []engine.PeerID) []string {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		if a := p.addrOfLocked(id); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// ---- payload codec ------------------------------------------------------

// dropPayloads returns a share decoded off the wire as the engine's
// payload-free schedule, dropping in place whatever bytes its sender put
// in its packets: they alias the borrowed transport buffer, and the
// serving peer writes each packet's bytes when it sends it.
func dropPayloads(s seq.Sequence) seq.Sequence {
	for i := range s {
		s[i].Payload = nil
	}
	return s
}

// sendBufs is the streaming goroutine's reused memory: a parity's
// payload is XORed into pay and every packet encoded into frame (Send
// keeps no reference to it).
type sendBufs struct{ frame, pay []byte }

// encode writes the wire form of pkt, payload included, into b.frame and
// returns it: a data packet's bytes are c's by index, a parity's the XOR
// of what it covers. Without a content the packet goes out payload-free.
func (b *sendBufs) encode(c *content.Content, pkt seq.Packet) []byte {
	switch {
	case c == nil:
	case pkt.IsData():
		pkt.Payload = c.Payload(pkt.Index)
	default:
		b.pay = c.XORPayload(b.pay[:0], pkt)
		pkt.Payload = b.pay
	}
	b.frame = seq.AppendPacket(b.frame[:0], pkt)
	return b.frame
}

// ---- engine driver ------------------------------------------------------

// outSend is one Send effect translated to the wire, remembered so a
// transport error can be fed back to the engine as SendFailed.
type outSend struct {
	to   string
	typ  string
	body transport.WireAppender
	toID engine.PeerID
	msg  any          // the engine message, nil for data-plane sends
	ctx  span.Context // causal context stamped on the frame
}

// dispatchCtx feeds one event into the engine under the lock and
// applies the effects; transmissions happen after the lock is released,
// and their failures are fed back as SendFailed events. parent is the
// causal context the triggering message carried (zero for timers and
// send failures); the observer folds the event/effect pair and stamps
// outgoing messages before they are encoded.
func (p *Peer) dispatchCtx(ev engine.Event, parent span.Context) {
	p.mu.Lock()
	if p.core == nil {
		p.mu.Unlock()
		return
	}
	effs := p.core.Handle(ev, p.st.Snapshot())
	p.obs.Observe(p.core, liveNow(), ev, parent, effs)
	sends := p.applyLocked(effs)
	// The batch is consumed: applyLocked copied out everything a send
	// needs (addresses; the shares are immutable), so the effect nodes
	// can be recycled before the transmissions even start.
	p.core.Release(effs)
	p.mu.Unlock()
	for _, s := range sends {
		err := sendBody(p.ep, p.sid, s.to, s.typ, s.body, s.ctx)
		if err != nil {
			if s.msg != nil {
				p.dispatchCtx(&engine.SendFailed{To: s.toID, Msg: s.msg}, span.Context{})
			}
			continue
		}
		if s.typ == typeData {
			p.mu.Lock()
			p.sent++
			p.mu.Unlock()
			p.met.sent.Inc()
			p.met.repairServed.Inc()
		}
	}
	if len(sends) > 0 {
		// Message nodes are recycled under the lock: the engine (and its
		// pools) only ever run under p.mu, and every consumer — encoder,
		// failure feedback — is done with them by now.
		p.mu.Lock()
		for _, s := range sends {
			engine.ReleaseMsg(s.msg)
		}
		p.mu.Unlock()
	}
}

// applyLocked executes the engine's effects in order and returns the
// sends to perform once the lock is released. The data-plane effects go
// to the schedule, against the snapshot taken under this same hold of
// p.mu, and wake the streaming goroutine. Callers hold p.mu.
func (p *Peer) applyLocked(effs []engine.Effect) []outSend {
	var sends []outSend
	for _, eff := range effs {
		switch e := eff.(type) {
		case *engine.Send:
			sends = append(sends, p.encodeLocked(e))
			continue
		case *engine.SetTimer:
			p.armTimer(e)
			continue
		case *engine.ServeRepair:
			sends = append(sends, p.repairSendsLocked(e.Indices)...)
			continue
		case *engine.Activate:
			select {
			case <-p.activated:
			default:
				close(p.activated)
			}
		}
		p.st.Apply(eff)
		p.kick()
	}
	return sends
}

// encodeLocked translates an engine Send into a wire message.
func (p *Peer) encodeLocked(e *engine.Send) outSend {
	to := p.addrOfLocked(e.To)
	var cid string
	if p.content != nil {
		cid = p.content.ID()
	}
	var carried []string
	if p.n.carry {
		carried = p.roster
	}
	switch m := e.Msg.(type) {
	case *engine.MsgControl:
		return outSend{to: to, typ: typeControl, toID: e.To, msg: e.Msg, ctx: m.Span, body: controlBody{
			Parent: p.Addr(), View: p.addrsOfLocked(m.View), Leaf: p.leaf, ContentID: cid,
			SeqOffset: m.SeqOffset, Rate: m.Rate, ChildRate: m.ChildRate,
			Children: m.Children, ChildIdx: m.ChildIdx,
			Assigned: m.AssignedSeq, Round: m.Round, Roster: carried,
		}}
	case *engine.MsgConfirm:
		return outSend{to: to, typ: typeConfirm, toID: e.To, msg: e.Msg, ctx: m.Span, body: confirmBody{
			Child: p.Addr(), Accept: m.Accept, Round: m.Round,
		}}
	case *engine.MsgCommit:
		return outSend{to: to, typ: typeCommit, toID: e.To, msg: e.Msg, ctx: m.Span, body: commitBody{
			Parent: p.Addr(), ContentID: cid, Leaf: p.leaf,
			Streams: m.Streams, SeqOffset: m.SeqOffset, Rate: m.Rate,
			ChildIdx: m.ChildIdx, Assigned: m.AssignedSeq, Round: m.Round,
			Roster: carried,
		}}
	}
	return outSend{to: to}
}

// armTimer schedules TimerFired delivery on the wall clock and records
// its expiry as the peer's deadline when it is the latest. Callers hold
// p.mu.
func (p *Peer) armTimer(e *engine.SetTimer) {
	id := e.ID
	delay := time.Duration(e.Delay * float64(time.Second))
	if at := time.Now().Add(delay); at.After(p.deadline) {
		p.deadline = at
	}
	time.AfterFunc(delay, func() {
		select {
		case <-p.stopCh:
			return
		default:
		}
		p.dispatchCtx(&engine.TimerFired{Timer: id}, span.Context{})
	})
}

// repairSendsLocked materializes a ServeRepair effect into data sends.
func (p *Peer) repairSendsLocked(indices []int64) []outSend {
	c, to := p.repairContent, p.repairTo
	if c == nil || to == "" {
		return nil
	}
	var out []outSend
	for _, k := range indices {
		if k < 1 || k > c.NumPackets() {
			continue
		}
		out = append(out, outSend{to: to, typ: typeData, body: dataBody{Pkt: c.Packet(k)}})
	}
	return out
}

// ---- inbound messages ---------------------------------------------------

// handle dispatches inbound messages. It runs on transport goroutines.
func (p *Peer) handle(m transport.Msg) {
	p.mu.Lock()
	p.lastTouch = time.Now()
	p.mu.Unlock()
	// The frame's causal context (zero when the sender traces nothing)
	// parents whatever spans handling this message opens.
	parent := span.Context{Trace: span.TraceID(m.Trace), Span: span.SpanID(m.Span)}
	var err error
	switch m.Type {
	case typeRequest:
		var b requestBody
		if err = b.DecodeWire(m.Payload); err == nil {
			p.onRequest(b, parent)
		}
	case typeControl:
		var b controlBody
		if err = b.DecodeWire(m.Payload); err == nil {
			p.onControl(b, parent)
		}
	case typeConfirm:
		var b confirmBody
		if err = b.DecodeWire(m.Payload); err == nil {
			p.onConfirm(b, parent)
		}
	case typeCommit:
		var b commitBody
		if err = b.DecodeWire(m.Payload); err == nil {
			p.onCommit(b, parent)
		}
	case typeRepair:
		var b repairBody
		if err = b.DecodeWire(m.Payload); err == nil {
			p.onRepair(b, parent)
		}
	case typeJoin:
		var b joinBody
		if err = b.DecodeWire(m.Payload); err == nil {
			p.onJoin(b, parent)
		}
	}
	if err != nil {
		p.met.decodeErrors.Inc()
	}
}

// maxRate bounds every rate a remote party may name, in packets per
// second. The pacer's 50 µs floor already caps what a peer transmits at
// 20,000 packets/s; the bound keeps the engine's mark arithmetic
// ⌊δ·rate⌋ an int, where an overflow becomes a negative slice index.
const maxRate = 1e9

// saneRate reports whether r is a number in [0, maxRate].
func saneRate(r float64) bool { return r >= 0 && r <= maxRate }

// servable reports whether a decoded request names a division that
// exists: the Index-th of H parts of an h-enhanced content, at a
// positive rate whose per-peer share τ(h+1)/(hH) is sane (h·H must not
// have overflowed either). The fields are a remote leaf's, and seq.Div
// panics on an index outside [0, H).
func (b *requestBody) servable() bool {
	return b.H > 0 && b.Interval > 0 && b.Index >= 0 && b.Index < b.H &&
		b.Rate > 0 && saneRate(parity.PerPeerRate(b.Rate, b.Interval, b.H))
}

// onRequest is activation by the leaf (§3.4/§3.5 step 2). The driver
// computes the initial assignment — Div(Esq(content, h), H, index) at
// rate τ(h+1)/(hH), exactly the simulator's — because only the driver
// holds the content; the engine does the rest. Esq(content, h) is the
// content's shared derivation; Div copies this peer's share out of it.
func (p *Peer) onRequest(b requestBody, parent span.Context) {
	if !b.servable() {
		p.met.invalidBodies.Inc()
		return
	}
	c, ok := p.n.cfg.Store.Get(b.ContentID)
	if !ok {
		return
	}
	assigned := seq.Div(c.Enhanced(b.Interval), b.H, b.Index)
	rate := parity.PerPeerRate(b.Rate, b.Interval, b.H)
	p.mu.Lock()
	p.content = c
	p.leaf = b.Leaf
	sel := p.idsOfLocked(b.Selected)
	p.mu.Unlock()
	p.dispatchCtx(&engine.Request{Assigned: assigned, Rate: rate, Selected: sel, Round: 1}, parent)
}

func (p *Peer) onControl(b controlBody, parent span.Context) {
	if !saneRate(b.Rate) || !saneRate(b.ChildRate) {
		p.met.invalidBodies.Inc()
		return
	}
	p.mu.Lock()
	if c, ok := p.n.cfg.Store.Get(b.ContentID); ok && p.content == nil {
		p.content = c
	}
	if p.leaf == "" {
		p.leaf = b.Leaf
	}
	msg := &engine.MsgControl{
		Parent: p.idOfLocked(b.Parent), View: p.idsOfLocked(b.View),
		SeqOffset: b.SeqOffset, Rate: b.Rate, ChildRate: b.ChildRate,
		Children: b.Children, ChildIdx: b.ChildIdx,
		AssignedSeq: dropPayloads(b.Assigned), Round: b.Round,
	}
	p.mu.Unlock()
	p.dispatchCtx(&engine.Control{Msg: msg}, parent)
}

func (p *Peer) onConfirm(b confirmBody, parent span.Context) {
	p.mu.Lock()
	msg := &engine.MsgConfirm{Child: p.idOfLocked(b.Child), Accept: b.Accept, Round: b.Round}
	p.mu.Unlock()
	p.dispatchCtx(&engine.Confirm{Msg: msg}, parent)
}

func (p *Peer) onCommit(b commitBody, parent span.Context) {
	if !saneRate(b.Rate) {
		p.met.invalidBodies.Inc()
		return
	}
	c, ok := p.n.cfg.Store.Get(b.ContentID)
	if !ok {
		return
	}
	p.mu.Lock()
	p.content = c
	if p.leaf == "" {
		p.leaf = b.Leaf
	}
	msg := &engine.MsgCommit{
		Parent: p.idOfLocked(b.Parent), Streams: b.Streams,
		SeqOffset: b.SeqOffset, Rate: b.Rate, ChildIdx: b.ChildIdx,
		AssignedSeq: dropPayloads(b.Assigned), Round: b.Round,
	}
	p.mu.Unlock()
	p.dispatchCtx(&engine.Commit{Msg: msg}, parent)
}

// onRepair retransmits the requested data packets immediately.
func (p *Peer) onRepair(b repairBody, parent span.Context) {
	c, ok := p.n.cfg.Store.Get(b.ContentID)
	if !ok {
		return
	}
	p.mu.Lock()
	p.repairContent = c
	p.repairTo = b.Leaf
	p.mu.Unlock()
	p.dispatchCtx(&engine.Repair{Indices: b.Indices}, parent)
}

// onJoin hands a mid-stream joiner a slice of the remaining stream (the
// engine declines when inactive or when a hand-off is already pending).
func (p *Peer) onJoin(b joinBody, parent span.Context) {
	p.mu.Lock()
	ok := b.Joiner != "" && b.Joiner != p.Addr() && p.content != nil && b.ContentID == p.content.ID()
	var joiner engine.PeerID
	if ok {
		joiner = p.idOfLocked(b.Joiner)
	}
	p.mu.Unlock()
	if !ok {
		return
	}
	p.dispatchCtx(&engine.Join{Joiner: joiner}, parent)
}

// ---- streaming ----------------------------------------------------------

// kick wakes the streaming loop after an assignment change.
func (p *Peer) kick() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// streamLoop transmits the current stream at the current rate, on the
// pacer's schedule: it sleeps on one reused timer until the next packet
// is due and sends without sleeping while it is behind.
func (p *Peer) streamLoop() {
	var pace pacer
	var bufs sendBufs
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	for {
		p.mu.Lock()
		// A stream that ran out with a switch planned goes round once
		// more: sendOne applies the switch.
		active := p.st.More() || p.st.Due()
		rate := p.st.Rate()
		p.mu.Unlock()
		if !active {
			pace.reset()
			select {
			case <-p.stopCh:
				return
			case <-p.wake:
				continue
			}
		}
		interval := time.Duration(float64(time.Second) / rate)
		if interval < 50*time.Microsecond {
			interval = 50 * time.Microsecond
		}
		if wait := pace.next(time.Now(), interval); wait > 0 {
			// The timer is idle here: it has never run, or it fired and
			// its channel was drained below.
			timer.Reset(wait)
			select {
			case <-p.stopCh:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-p.stopCh:
				return
			default:
			}
		}
		p.sendOne(&bufs)
	}
}

// sendOne transmits the next packet of the schedule, switching first
// when the next packet has reached the planned switch's mark (or the
// stream has run out). The packet and its payload are written into bufs.
func (p *Peer) sendOne(bufs *sendBufs) {
	p.mu.Lock()
	if p.st.Due() {
		p.st.Switch()
	}
	pkt, ok := p.st.Next()
	if !ok {
		p.mu.Unlock()
		return
	}
	p.sent++
	p.lastTouch = time.Now()
	leaf, c := p.leaf, p.content
	p.mu.Unlock()
	p.met.sent.Inc()
	// The per-packet path builds the message itself: going through sendBody
	// would box a dataBody in an interface and allocate a buffer for every
	// packet.
	p.ep.Send(leaf, transport.Msg{ //nolint:errcheck // a vanished leaf ends the session; repair handles the rest
		Type: typeData, From: p.Addr(), Session: string(p.sid),
		Payload: bufs.encode(c, pkt),
	})
}
