package transport

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"p2pmss/internal/wire"
)

type inbox struct {
	mu   sync.Mutex
	msgs []Msg
}

func (b *inbox) handler() Handler {
	return func(m Msg) {
		m.Payload = bytes.Clone(m.Payload) // borrowed until the handler returns
		b.mu.Lock()
		defer b.mu.Unlock()
		b.msgs = append(b.msgs, m)
	}
}

func (b *inbox) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.msgs)
}

func (b *inbox) first() Msg {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.msgs[0]
}

// testBody is a body with a wire form, as the live runtime's are.
type testBody struct {
	X int
	S []string
}

func (b testBody) AppendWire(buf []byte) []byte {
	return wire.AppendStrings(wire.AppendInt(buf, b.X), b.S)
}

func (b *testBody) DecodeWire(buf []byte) error {
	r := wire.NewReader(buf)
	*b = testBody{X: r.Int(), S: r.Strings()}
	return r.Done()
}

func TestEncodeDecode(t *testing.T) {
	m, err := Encode("control", "a", testBody{X: 7, S: []string{"p", "q"}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != "control" || m.From != "a" {
		t.Errorf("header = %+v", m)
	}
	var got testBody
	if err := m.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.X != 7 || len(got.S) != 2 {
		t.Errorf("body = %+v", got)
	}
	m.Payload = m.Payload[:len(m.Payload)-1]
	if err := m.Decode(&got); err == nil {
		t.Error("truncated body decoded")
	}
	// There is no reflective fallback: a body without a wire form is an
	// error in both directions, not a silent JSON encoding.
	if _, err := Encode("control", "a", map[string]int{"x": 1}); err == nil {
		t.Error("Encode accepted a body with no wire form")
	}
	if err := m.Decode(&[]int{}); err == nil {
		t.Error("Decode accepted a target with no wire form")
	}
}

func TestFabricDelivery(t *testing.T) {
	f := NewFabric()
	var b inbox
	f.Endpoint("bob", b.handler())
	a := f.Endpoint("alice", func(Msg) {})
	if err := a.Send("bob", Msg{Type: "hello", From: "alice", Payload: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	f.Wait()
	if b.len() != 1 || b.first().Type != "hello" {
		t.Fatalf("inbox = %+v", b.msgs)
	}
}

func TestFabricUnknownEndpoint(t *testing.T) {
	f := NewFabric()
	a := f.Endpoint("a", func(Msg) {})
	if err := a.Send("ghost", Msg{}); !errors.Is(err, ErrNoEndpoint) {
		t.Errorf("send to unknown endpoint: %v, want ErrNoEndpoint", err)
	}
}

// A serving peer whose leaf is gone streams on into the address until it
// is reaped: each of those sends, to an address never opened or since
// closed, allocates nothing.
func TestFabricSendToNoEndpointAllocs(t *testing.T) {
	f := NewFabric()
	a := f.Endpoint("a", func(Msg) {})
	f.Endpoint("gone", func(Msg) {}).Close()
	m := Msg{Type: "data", Payload: make([]byte, 64)}
	for _, to := range []string{"ghost", "gone"} {
		if n := testing.AllocsPerRun(100, func() { a.Send(to, m) }); n != 0 {
			t.Errorf("a send to %q allocates %v times, want 0", to, n)
		}
	}
}

func TestFabricClose(t *testing.T) {
	f := NewFabric()
	var b inbox
	ep := f.Endpoint("b", b.handler())
	a := f.Endpoint("a", func(Msg) {})
	ep.Close()
	if err := a.Send("b", Msg{Type: "x"}); !errors.Is(err, ErrNoEndpoint) {
		t.Errorf("send to closed endpoint: %v, want ErrNoEndpoint", err)
	}
	f.Wait()
	if b.len() != 0 {
		t.Error("closed endpoint received")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	var b inbox
	srv, err := ListenTCP("127.0.0.1:0", b.handler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := ListenTCP("127.0.0.1:0", func(Msg) {})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	m := Msg{Type: "data", From: cli.Name(), Payload: []byte("t1")}
	for i := 0; i < 50; i++ {
		if err := cli.Send(srv.Name(), m); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for b.len() < 50 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if b.len() != 50 {
		t.Fatalf("received %d of 50", b.len())
	}
	if b.first().From != cli.Name() {
		t.Errorf("from = %q", b.first().From)
	}
}

func TestTCPBidirectional(t *testing.T) {
	var ab, bb inbox
	a, err := ListenTCP("127.0.0.1:0", ab.handler())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0", bb.handler())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.Send(b.Name(), Msg{Type: "ping", From: a.Name()})
	deadline := time.Now().Add(2 * time.Second)
	for bb.len() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if bb.len() == 0 {
		t.Fatal("ping not received")
	}
	b.Send(a.Name(), Msg{Type: "pong", From: b.Name()})
	for ab.len() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if ab.len() == 0 || ab.first().Type != "pong" {
		t.Fatal("pong not received")
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	e, err := ListenTCP("127.0.0.1:0", func(Msg) {})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if err := e.Send("127.0.0.1:1", Msg{}); err == nil {
		t.Error("send after close succeeded")
	}
	if err := e.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestTCPDialFailure(t *testing.T) {
	e, err := ListenTCP("127.0.0.1:0", func(Msg) {})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Port 1 should refuse immediately.
	if err := e.Send("127.0.0.1:1", Msg{Type: "x"}); err == nil {
		t.Error("dial to dead port succeeded")
	}
}
