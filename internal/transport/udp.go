package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"

	"p2pmss/internal/metrics"
)

// ---- UDP fabric -----------------------------------------------------------

// MaxDatagram bounds one encoded message to the IPv4 UDP payload ceiling.
// Unlike TCP frames there is no streaming escape hatch: a message that
// does not fit in one datagram cannot be sent. At the packet sizes the
// streaming layer uses (content packets of a few KiB plus a header of
// tens of bytes) this leaves ample headroom.
const MaxDatagram = 65507

// UDPEndpoint is an endpoint bound to a UDP socket; peers are addressed
// by host:port. Every Msg is one self-contained datagram (one envelope,
// codec.go), so the codec survives loss, duplication, and reordering by
// construction — each datagram decodes independently or is counted
// under transport_decode_errors_total and discarded.
//
// UDP gives true datagram semantics: a Send whose datagram is lost —
// whether in flight or at the local socket — returns nil. The engine's
// SendFailed event therefore never fires on this transport; §3.4/§3.5
// coordination must rely on its timer deadlines, and the data plane on
// §3.2 parity recovery.
type UDPEndpoint struct {
	name string
	conn *net.UDPConn
	h    Handler

	mu     sync.Mutex
	addrs  map[string]netip.AddrPort // resolved peer addresses
	impair *Impairer
	closed bool
	wg     sync.WaitGroup
	met    fabricMetrics
	// reg is retained from Instrument so an impairment installed later
	// gets its verdict counters on the same registry.
	reg *metrics.Registry
}

// ListenUDP binds an endpoint to addr (e.g. "127.0.0.1:0"); its Name is
// the bound address.
func ListenUDP(addr string, h Handler) (*UDPEndpoint, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("transport: listen udp %s: %w", addr, err)
	}
	// Large kernel buffers absorb the bursts a τ(h+1)/h fan-in produces;
	// best effort — an unadjustable buffer just means more genuine loss,
	// which the parity scheme exists to cover.
	_ = conn.SetReadBuffer(4 << 20)
	_ = conn.SetWriteBuffer(4 << 20)
	e := &UDPEndpoint{
		name:  conn.LocalAddr().String(),
		conn:  conn,
		h:     h,
		addrs: make(map[string]netip.AddrPort),
	}
	e.wg.Add(1)
	go e.readLoop()
	return e, nil
}

func (e *UDPEndpoint) Name() string { return e.name }

// Instrument registers the endpoint's traffic counters on reg. All UDP
// endpoints instrumented on the same registry aggregate into shared
// transport_*{transport="udp"} series. Call before traffic starts.
func (e *UDPEndpoint) Instrument(reg *metrics.Registry) {
	e.mu.Lock()
	e.met = newSocketMetrics(reg, "udp")
	e.reg = reg
	imp := e.impair
	e.mu.Unlock()
	imp.Instrument(reg, "udp")
}

// SetImpairment installs a seeded Impairment policy on the endpoint's
// outbound sends, for rehearsing loss/reorder/duplication scenarios over
// real sockets. Call before traffic starts; a policy with nothing
// enabled clears it. Held (reordered) messages are released either by
// later traffic on their link or by the policy's MaxHold timer — set
// MaxHold on UDP so a quiet link cannot strand them forever.
func (e *UDPEndpoint) SetImpairment(cfg Impairment) *Impairer {
	e.mu.Lock()
	if !cfg.Enabled() {
		e.impair = nil
		e.mu.Unlock()
		return nil
	}
	imp := NewImpairer(cfg, func(to string, m Msg) {
		e.mu.Lock()
		ua, ok := e.addrs[to]
		closed := e.closed
		met := e.met
		e.mu.Unlock()
		if closed || !ok {
			return
		}
		_ = e.write(ua, m, met)
	})
	e.impair = imp
	reg := e.reg
	e.mu.Unlock()
	imp.Instrument(reg, "udp")
	return imp
}

// Send encodes m as one datagram and fires it at the named address. Only
// local, permanent failures (unresolvable address, oversize message)
// return an error; a datagram the socket accepted may still be lost
// anywhere downstream with no signal, and one the socket rejected is
// counted as dropped and reported as success — to the protocol the two
// are indistinguishable.
func (e *UDPEndpoint) Send(to string, m Msg) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return errors.New("transport: endpoint closed")
	}
	ua, ok := e.addrs[to]
	imp := e.impair
	met := e.met
	e.mu.Unlock()
	if !ok {
		ra, err := net.ResolveUDPAddr("udp", to)
		if err != nil {
			return fmt.Errorf("transport: resolve %s: %w", to, err)
		}
		// Unmapped, the address suits an IPv4 and an IPv6 socket alike.
		ua = netip.AddrPortFrom(ra.AddrPort().Addr().Unmap(), uint16(ra.Port))
		e.mu.Lock()
		e.addrs[to] = ua
		e.mu.Unlock()
	}
	if imp != nil {
		var firstErr error
		if imp.Admit(e.name, to, m, func(dm Msg) {
			if err := e.write(ua, dm, met); err != nil && firstErr == nil {
				firstErr = err
			}
		}) {
			met.dropped.Inc()
		}
		return firstErr
	}
	return e.write(ua, m, met)
}

// write puts one encoded datagram on the wire: the frame is built in a
// pooled buffer that goes back as soon as the socket has copied it.
func (e *UDPEndpoint) write(ua netip.AddrPort, m Msg, met fabricMetrics) error {
	bp := framePool.Get().(*[]byte)
	pkt := AppendFrame((*bp)[:0], m)
	defer putFrame(bp, pkt)
	if len(pkt) > MaxDatagram {
		return fmt.Errorf("transport: datagram of %d bytes exceeds %d", len(pkt), MaxDatagram)
	}
	if _, err := e.conn.WriteToUDPAddrPort(pkt, ua); err != nil {
		met.dropped.Inc()
		return nil // lost locally ≈ lost in flight; datagrams don't report
	}
	met.msgs.Inc()
	met.bytes.Add(int64(len(pkt)))
	return nil
}

// readLoop decodes datagrams and hands them to the handler, whose
// payload aliases the one read buffer until it returns. Anything
// that is not a well-formed frame of this format version — foreign
// traffic, truncation, corruption, an older peer — is counted by reason
// and discarded, as a lossy network would have discarded it.
func (e *UDPEndpoint) readLoop() {
	defer e.wg.Done()
	buf := make([]byte, MaxDatagram+1)
	for {
		n, _, err := e.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // socket closed
		}
		m, err := DecodeFrame(buf[:n])
		e.mu.Lock()
		closed := e.closed
		met := e.met
		e.mu.Unlock()
		if closed {
			return
		}
		if err != nil {
			met.decodeFailed(err)
			continue
		}
		met.received.Inc()
		e.h(m)
		poison(buf[:n]) // the next datagram is read into buf
	}
}

// Close shuts the socket; the endpoint stops receiving.
func (e *UDPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	err := e.conn.Close()
	e.wg.Wait()
	return err
}
