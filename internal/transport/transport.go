// Package transport provides the live runtime's message fabric: named
// endpoints exchanging Msg values. Three implementations are provided:
// the in-process Fabric, one FIFO queue drained by one pump goroutine,
// which hands each handler a pooled copy of the message's body, and TCP
// and UDP endpoints, which frame each message in the binary envelope of
// codec.go (a UDP datagram is one envelope, a TCP frame one envelope
// behind a 4-byte length). A message body is opaque bytes to every
// transport; bodies that know their wire form (WireAppender,
// WireDecoder) go through Encode and Msg.Decode. Loss, duplication and
// reordering are one hook, a seeded Impairment, on the fabric and on
// UDP alike.
//
// The simulator's link model (internal/coord) plays the same role in virtual
// time; this package is the real-time counterpart used by internal/live.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"p2pmss/internal/metrics"
)

// fabricMetrics holds a transport's instrument handles; the zero value
// (all nil) records nothing at no cost. Counters are registered under
// one identity per transport kind ("mem" or "tcp"), so several
// endpoints sharing a registry aggregate into the same series.
type fabricMetrics struct {
	msgs, bytes, dropped, received *metrics.Counter
	queueDropped                   *metrics.Counter
	inflight                       *metrics.Gauge
	// decodeErrs counts inbound frames rejected by DecodeFrame, by
	// frameError; nil on the fabric, which decodes nothing.
	decodeErrs [numFrameErrors]*metrics.Counter
}

func newTransportMetrics(reg *metrics.Registry, kind string) fabricMetrics {
	return fabricMetrics{
		msgs:         reg.Counter("transport_messages_sent_total", "transport", kind),
		bytes:        reg.Counter("transport_bytes_sent_total", "transport", kind),
		dropped:      reg.Counter("transport_messages_dropped_total", "transport", kind),
		received:     reg.Counter("transport_messages_received_total", "transport", kind),
		queueDropped: reg.Counter("transport_queue_dropped_total", "transport", kind),
		inflight:     reg.Gauge("transport_inflight_messages", "transport", kind),
	}
}

// newSocketMetrics is newTransportMetrics for a transport that parses
// frames off a socket: it adds the decode-error counters.
func newSocketMetrics(reg *metrics.Registry, kind string) fabricMetrics {
	met := newTransportMetrics(reg, kind)
	for e, reason := range frameErrorNames {
		met.decodeErrs[e] = reg.Counter("transport_decode_errors_total", "transport", kind, "reason", reason)
	}
	return met
}

// decodeFailed counts one rejected inbound frame under its reason.
func (m *fabricMetrics) decodeFailed(err error) {
	var fe frameError
	if errors.As(err, &fe) {
		m.decodeErrs[fe].Inc()
	}
}

// Msg is one message: a small routed header and an opaque body.
type Msg struct {
	// Type tags the payload (e.g. "request", "control", "data").
	Type string
	// From names the sending endpoint.
	From string
	// Session scopes the message to one streaming session of the
	// live.Node that sent it; empty on session-less node traffic
	// (discovery announcements).
	Session string
	// Trace and Span carry the sender's causal span context
	// (internal/span) so the receiver can parent its own spans under the
	// coordination step that triggered the message. Zero when tracing is
	// disabled — omitted from the frame, keeping the wire byte-identical
	// to an untraced run.
	Trace uint64
	Span  uint64
	// Payload is the encoded body. It is borrowed in both directions, as
	// with net.PacketConn: Send keeps no reference to it after it
	// returns, so a sender may reuse its buffer at once, and a handler's
	// Payload is valid only until the handler returns — the transport
	// then recycles the buffer (the fabric's pooled copy, a socket's read
	// buffer) — so a handler copies whatever it keeps, sub-slices and
	// decoded values that alias it included. A handler must not write to
	// it.
	Payload []byte
}

// Handler processes an inbound message. Handlers may be invoked
// concurrently and must be safe for concurrent use.
type Handler func(m Msg)

// Endpoint sends messages to named peers.
type Endpoint interface {
	// Name returns this endpoint's address.
	Name() string
	// Send delivers m to the named endpoint.
	Send(to string, m Msg) error
	// Close releases resources; the endpoint stops receiving.
	Close() error
}

// ---- in-memory fabric ----------------------------------------------------

// Fabric is an in-process message fabric connecting named endpoints.
// One pump goroutine delivers every message in global enqueue order,
// running each handler to completion before the next delivery, so a
// handler's own sends queue behind everything already in flight — the
// breadth-first order of a discrete-event simulator whose messages all
// take the same time. Loss, duplication and reordering come from a
// seeded Impairment (SetImpairment).
type Fabric struct {
	mu       sync.Mutex
	handlers map[string]Handler
	closed   map[string]bool
	// impair, when set (SetImpairment), applies a seeded Impairment
	// policy to every send.
	impair *Impairer
	queue  ring
	// pumping is true while a pump goroutine exists; it parks on work
	// between bursts and exits once the queue is empty and every endpoint
	// is closed.
	pumping bool
	work    *sync.Cond
	// Bounded-queue state (NewBoundedQueuedFabric): queueCap caps the
	// pending queue, policy picks what a full queue does to new sends,
	// space wakes blocked senders, pumpID identifies the pump goroutine
	// on a QueueBlock fabric (whose own enqueues must never block — they
	// would deadlock the drain), and queueDrops counts messages lost to
	// QueueDropNewest.
	queueCap   int
	policy     QueuePolicy
	space      *sync.Cond
	pumpID     uint64
	queueDrops int64
	// stack is goid's buffer, under its own lock: goid runs outside mu.
	stack struct {
		sync.Mutex
		buf [32]byte
	}
	wg  sync.WaitGroup
	met fabricMetrics
	// reg is retained from Instrument so an impairment installed later
	// gets its verdict counters on the same registry.
	reg *metrics.Registry
}

// QueuePolicy selects what a bounded fabric does with a send arriving
// while the queue is at capacity.
type QueuePolicy int

const (
	// QueueBlock applies backpressure: the sender waits until the pump
	// frees a slot. Sends issued from inside a handler (i.e. on the pump
	// goroutine itself) are exempt and may transiently exceed the cap,
	// since blocking them would deadlock the drain.
	QueueBlock QueuePolicy = iota
	// QueueDropNewest drops the arriving message, counting it in the
	// transport_queue_dropped_total metric and QueueDrops.
	QueueDropNewest
)

// queuedMsg is one pending delivery; bp is the pooled buffer holding
// m.Payload, recycled once the handler returns.
type queuedMsg struct {
	to string
	m  Msg
	bp *[]byte
}

// ring is the fabric's FIFO: a circular buffer whose storage is reused
// as the window slides and doubles only when full.
type ring struct {
	buf     []queuedMsg // len is zero or a power of two
	head, n int
}

func (q *ring) push(qm queuedMsg) {
	if q.n == len(q.buf) {
		grown := make([]queuedMsg, max(16, 2*len(q.buf)))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = qm
	q.n++
}

func (q *ring) pop() queuedMsg {
	qm := q.buf[q.head]
	q.buf[q.head] = queuedMsg{} // drop the references for the collector
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return qm
}

// Instrument registers the fabric's traffic counters (messages/bytes
// sent, drops, deliveries, in-flight queue depth) on reg. Call before
// traffic starts; a nil registry leaves the fabric uninstrumented. The
// registry is retained so an impairment installed later (or already
// installed) gets its verdict counters too.
func (f *Fabric) Instrument(reg *metrics.Registry) {
	f.mu.Lock()
	f.met = newTransportMetrics(reg, "mem")
	f.reg = reg
	imp := f.impair
	f.mu.Unlock()
	imp.Instrument(reg, "mem")
}

// NewFabric returns an empty in-memory fabric with an unbounded queue.
func NewFabric() *Fabric {
	f := &Fabric{handlers: make(map[string]Handler), closed: make(map[string]bool)}
	f.work = sync.NewCond(&f.mu)
	return f
}

// NewBoundedQueuedFabric is NewFabric with the pending queue capped at
// capacity messages. policy selects backpressure (QueueBlock) or loss
// (QueueDropNewest) when the queue is full; drops are counted in
// QueueDrops and the transport_queue_dropped_total metric. A capacity
// <= 0 leaves the queue unbounded.
func NewBoundedQueuedFabric(capacity int, policy QueuePolicy) *Fabric {
	f := NewFabric()
	f.queueCap = capacity
	f.policy = policy
	f.space = sync.NewCond(&f.mu)
	return f
}

// SetImpairment installs a seeded Impairment policy applied to every
// send. Call before traffic starts; a policy with nothing enabled clears
// it. Impairment verdicts and deliveries stay deterministic for a fixed
// seed because each link consumes its own RNG stream in its own send
// order. The returned Impairer exposes Stats and Flush; it is nil when
// the policy was cleared.
func (f *Fabric) SetImpairment(cfg Impairment) *Impairer {
	f.mu.Lock()
	if !cfg.Enabled() {
		f.impair = nil
		f.mu.Unlock()
		return nil
	}
	imp := NewImpairer(cfg, f.enqueue)
	f.impair = imp
	reg := f.reg
	f.mu.Unlock()
	imp.Instrument(reg, "mem")
	return imp
}

// QueueDrops reports how many messages a bounded fabric dropped because
// the queue was at capacity.
func (f *Fabric) QueueDrops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.queueDrops
}

// Endpoint registers name with the handler and returns its endpoint.
func (f *Fabric) Endpoint(name string, h Handler) Endpoint {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.handlers[name] = h
	delete(f.closed, name)
	return &memEndpoint{f: f, name: name}
}

// Wait blocks until all in-flight deliveries complete.
func (f *Fabric) Wait() { f.wg.Wait() }

// ErrNoEndpoint is a fabric send's error when no endpoint is open at
// the address. It names no address, so a send into a vanished peer
// allocates nothing; a caller that reports it names the address.
var ErrNoEndpoint = errors.New("transport: no endpoint at the address")

type memEndpoint struct {
	f    *Fabric
	name string
}

func (e *memEndpoint) Name() string { return e.name }

func (e *memEndpoint) Send(to string, m Msg) error {
	f := e.f
	f.mu.Lock()
	_, ok := f.handlers[to]
	closed := f.closed[to]
	imp := f.impair
	met := f.met
	f.mu.Unlock()
	if !ok || closed {
		return ErrNoEndpoint
	}
	met.msgs.Inc()
	met.bytes.Add(int64(len(m.Payload)))
	if imp != nil {
		if imp.Admit(e.name, to, m, func(dm Msg) { f.enqueue(to, dm) }) {
			met.dropped.Inc()
		}
		return nil
	}
	f.enqueue(to, m)
	return nil
}

// enqueue appends a pooled copy of m to the FIFO queue and wakes the
// pump, starting one if none exists; a send and an impairment release
// both end here, so the caller's buffer is free again once it returns.
// A message for an endpoint closed since the send is counted dropped.
// On a bounded fabric a full queue either drops the message
// (QueueDropNewest) or blocks the sender until the pump frees a slot
// (QueueBlock) — except when the sender IS the pump (a handler sending
// mid-delivery), which may exceed the cap rather than deadlock the drain.
func (f *Fabric) enqueue(to string, m Msg) {
	// Copied before taking the lock the pump contends for.
	bp, payload := borrow(m.Payload)
	m.Payload = payload
	f.mu.Lock()
	if _, ok := f.handlers[to]; !ok || f.closed[to] {
		f.met.dropped.Inc()
		f.mu.Unlock()
		putFrame(bp, m.Payload)
		return
	}
	if f.queueCap > 0 && f.queue.n >= f.queueCap {
		if f.policy == QueueDropNewest {
			f.queueDrops++
			f.met.queueDropped.Inc()
			f.mu.Unlock()
			putFrame(bp, m.Payload)
			return
		}
		// goid walks the stack: not under the lock every sender needs.
		f.mu.Unlock()
		self := f.goid()
		f.mu.Lock()
		if f.pumpID != self {
			for f.queue.n >= f.queueCap {
				f.space.Wait()
			}
		}
	}
	f.queue.push(queuedMsg{to: to, m: m, bp: bp})
	f.wg.Add(1)
	f.met.inflight.Add(1)
	start := !f.pumping
	f.pumping = true
	f.mu.Unlock()
	if start {
		go f.pump()
	} else {
		f.work.Signal()
	}
}

// pump drains the queue in order, one delivery at a time, and parks
// between bursts: a paced stream empties the queue after every message,
// and a goroutine per burst would pay a fresh stack (regrown inside the
// handler) each time. It exits when there is nothing to deliver and no
// endpoint left to deliver to; the next enqueue starts another.
func (f *Fabric) pump() {
	var id uint64
	if f.queueCap > 0 && f.policy == QueueBlock {
		id = f.goid() // enqueue is pumpID's only reader, and only when blocking
	}
	f.mu.Lock()
	f.pumpID = id
	for {
		for f.queue.n == 0 {
			if len(f.handlers) == len(f.closed) {
				f.pumping = false
				f.pumpID = 0
				f.mu.Unlock()
				return
			}
			f.work.Wait()
		}
		qm := f.queue.pop()
		h := f.handlers[qm.to]
		closed := f.closed[qm.to]
		met := f.met
		if f.space != nil {
			f.space.Broadcast()
		}
		f.mu.Unlock()
		if h != nil && !closed {
			met.received.Inc()
			h(qm.m)
		} else {
			met.dropped.Inc()
		}
		putFrame(qm.bp, qm.m.Payload)
		met.inflight.Add(-1)
		f.wg.Done()
		f.mu.Lock()
	}
}

// goid parses the running goroutine's id from its stack header; used
// once per pump goroutine and on the bounded-queue slow path, to
// recognize the pump there. It reads the header into f.stack: a local
// array handed to runtime.Stack escapes to the heap, and the slow path
// would then allocate as often as scheduling fills the queue.
func (f *Fabric) goid() uint64 {
	f.stack.Lock()
	defer f.stack.Unlock()
	s := f.stack.buf[:runtime.Stack(f.stack.buf[:], false)]
	// "goroutine 123 [...":  skip "goroutine ", parse digits.
	const prefix = "goroutine "
	var id uint64
	for i := len(prefix); i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			break
		}
		id = id*10 + uint64(s[i]-'0')
	}
	return id
}

func (e *memEndpoint) Close() error {
	e.f.mu.Lock()
	defer e.f.mu.Unlock()
	e.f.closed[e.name] = true
	e.f.work.Signal() // a parked pump exits with the last endpoint
	return nil
}

// ---- TCP fabric -----------------------------------------------------------

// TCPEndpoint is an endpoint listening on a TCP address; peers are
// addressed by their host:port. Frames are 4-byte big-endian length +
// one envelope (codec.go).
type TCPEndpoint struct {
	name string
	ln   net.Listener
	h    Handler

	mu       sync.Mutex
	conns    map[string]net.Conn // outbound, by remote address
	accepted map[net.Conn]bool   // inbound, closed on shutdown
	closed   bool
	wg       sync.WaitGroup
	met      fabricMetrics
}

// Instrument registers the endpoint's traffic counters on reg. All TCP
// endpoints instrumented on the same registry aggregate into shared
// transport_*{transport="tcp"} series. Call before traffic starts.
func (e *TCPEndpoint) Instrument(reg *metrics.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.met = newSocketMetrics(reg, "tcp")
}

// MaxFrame bounds a frame's size (16 MiB) to fail fast on corrupt input.
const MaxFrame = 16 << 20

// ListenTCP starts an endpoint on addr (e.g. "127.0.0.1:0"); its Name is
// the bound address.
func ListenTCP(addr string, h Handler) (*TCPEndpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	e := &TCPEndpoint{
		name:     ln.Addr().String(),
		ln:       ln,
		h:        h,
		conns:    make(map[string]net.Conn),
		accepted: make(map[net.Conn]bool),
	}
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

func (e *TCPEndpoint) Name() string { return e.name }

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			c.Close()
			return
		}
		e.accepted[c] = true
		e.mu.Unlock()
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			defer func() {
				e.mu.Lock()
				delete(e.accepted, c)
				e.mu.Unlock()
				c.Close()
			}()
			e.readLoop(c)
		}()
	}
}

// readLoop delivers the connection's frames until it fails. A malformed
// frame is counted and ends the connection: after it the stream's frame
// boundaries cannot be trusted.
func (e *TCPEndpoint) readLoop(c net.Conn) {
	var buf []byte
	for {
		var m Msg
		var err error
		m, buf, err = readFrame(c, buf)
		e.mu.Lock()
		closed := e.closed
		met := e.met
		e.mu.Unlock()
		if closed {
			return
		}
		if err != nil {
			met.decodeFailed(err)
			return
		}
		met.received.Inc()
		e.h(m)
		poison(buf) // the next frame is read into buf
	}
}

// Send dials (or reuses) a connection to the named address and writes one
// frame.
func (e *TCPEndpoint) Send(to string, m Msg) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return errors.New("transport: endpoint closed")
	}
	c, ok := e.conns[to]
	met := e.met
	e.mu.Unlock()
	if !ok {
		nc, err := net.DialTimeout("tcp", to, 2*time.Second)
		if err != nil {
			return fmt.Errorf("transport: dial %s: %w", to, err)
		}
		e.mu.Lock()
		if prev, exists := e.conns[to]; exists {
			nc.Close()
			c = prev
		} else {
			e.conns[to] = nc
			c = nc
		}
		e.mu.Unlock()
	}
	n, err := writeFrame(c, m)
	if err != nil {
		// Connection went bad: drop it so the next send redials.
		met.dropped.Inc()
		e.mu.Lock()
		if e.conns[to] == c {
			delete(e.conns, to)
		}
		e.mu.Unlock()
		c.Close()
		return err
	}
	met.msgs.Inc()
	met.bytes.Add(int64(n))
	return nil
}

// Close stops the listener and closes cached connections.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	conns := e.conns
	e.conns = map[string]net.Conn{}
	inbound := make([]net.Conn, 0, len(e.accepted))
	for c := range e.accepted {
		inbound = append(inbound, c)
	}
	e.mu.Unlock()
	err := e.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	for _, c := range inbound {
		c.Close() // unblocks the readLoop so wg.Wait can return
	}
	e.wg.Wait()
	return err
}

// writeFrame writes one frame — length header and envelope built in one
// pooled buffer, put on the wire by a single Write so concurrent senders
// sharing the connection cannot interleave — and reports its size.
func writeFrame(w io.Writer, m Msg) (int, error) {
	bp := framePool.Get().(*[]byte)
	b := AppendFrame(append((*bp)[:0], 0, 0, 0, 0), m)
	defer putFrame(bp, b)
	if len(b)-4 > MaxFrame {
		return 0, fmt.Errorf("transport: frame of %d bytes exceeds limit", len(b)-4)
	}
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	if _, err := w.Write(b); err != nil {
		return 0, err
	}
	return len(b), nil
}

// readStep bounds how much readFrame grows its buffer ahead of the bytes
// that have actually arrived.
const readStep = 32 << 10

// readFrame reads one frame into buf (the connection's reusable read
// buffer, returned for the next call) and decodes it; the message's
// payload aliases the buffer until the next call. The length header
// is a claim by the peer: the buffer grows by at most readStep per read,
// so a connection that announces 16 MiB and then idles pins one step,
// not the announcement. A malformed frame is reported as a frameError;
// any other error is the connection's.
func readFrame(r io.Reader, buf []byte) (Msg, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = truncated // hung up inside the header; a bare EOF is a clean close
		}
		return Msg{}, buf, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > MaxFrame {
		return Msg{}, buf, badLength
	}
	buf = buf[:0]
	for len(buf) < n {
		step := min(n-len(buf), readStep)
		if cap(buf)-len(buf) < step {
			grown := make([]byte, len(buf), max(2*cap(buf), len(buf)+step))
			copy(grown, buf)
			buf = grown
		}
		k, err := io.ReadFull(r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+k]
		if err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				err = truncated // the peer hung up inside a frame
			}
			return Msg{}, nil, err
		}
	}
	m, err := DecodeFrame(buf)
	if cap(buf) > maxPooledFrame {
		buf = nil // as with send buffers, a rare large frame is not kept
	}
	return m, buf, err
}
