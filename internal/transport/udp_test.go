package transport

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"p2pmss/internal/metrics"
)

// collect returns a handler appending message types to a shared slice.
func collect() (Handler, func() []string) {
	var mu sync.Mutex
	var got []string
	h := func(m Msg) {
		mu.Lock()
		got = append(got, m.Type)
		mu.Unlock()
	}
	return h, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), got...)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Messages round-trip over real UDP sockets in both directions, with
// payloads intact.
func TestUDPRoundTrip(t *testing.T) {
	var mu sync.Mutex
	var got []Msg
	a, err := ListenUDP("127.0.0.1:0", func(Msg) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenUDP("127.0.0.1:0", func(m Msg) {
		m.Payload = bytes.Clone(m.Payload) // borrowed until the handler returns
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	body := []byte{0, 1, 2, 0xff, 'k', 7}
	for i := 0; i < 20; i++ {
		if err := a.Send(b.Name(), Msg{Type: fmt.Sprintf("m%d", i), From: a.Name(), Payload: body}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	// Loopback UDP is reliable in practice; tolerate stray loss anyway.
	waitFor(t, "most datagrams", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= 15
	})
	mu.Lock()
	defer mu.Unlock()
	for _, m := range got {
		if m.From != a.Name() || !bytes.Equal(m.Payload, body) {
			t.Fatalf("corrupted message: %+v", m)
		}
	}
}

// Sending to a vanished peer returns nil: datagram loss is silent, so
// the engine's SendFailed machinery never fires on UDP and retries must
// come from timer deadlines instead.
func TestUDPSendToVanishedPeerIsSilent(t *testing.T) {
	a, err := ListenUDP("127.0.0.1:0", func(Msg) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenUDP("127.0.0.1:0", func(Msg) {})
	if err != nil {
		t.Fatal(err)
	}
	gone := b.Name()
	b.Close()
	for i := 0; i < 10; i++ {
		if err := a.Send(gone, Msg{Type: "req"}); err != nil {
			t.Fatalf("send to vanished peer returned error: %v", err)
		}
	}
}

// Oversize messages are rejected locally with an error (there is no
// fragmentation escape hatch), and resolution failures surface too.
func TestUDPSendErrors(t *testing.T) {
	a, err := ListenUDP("127.0.0.1:0", func(Msg) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	big := Msg{Type: "data", Payload: make([]byte, MaxDatagram)}
	if err := a.Send(a.Name(), big); err == nil {
		t.Fatal("oversize datagram accepted")
	}
	if err := a.Send("no-such-host-zzz:port", Msg{}); err == nil {
		t.Fatal("unresolvable address accepted")
	}
}

// Foreign and corrupt datagrams on the port are discarded without
// reaching the handler or killing the read loop — and never silently:
// each is counted under the reason it was rejected for. A datagram in
// the previous format ("p2p1" + JSON) is foreign traffic like any other.
func TestUDPCountsMalformedDatagrams(t *testing.T) {
	h, got := collect()
	e, err := ListenUDP("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	reg := metrics.New()
	e.Instrument(reg)
	raw, err := net.Dial("udp", e.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	good := AppendFrame(nil, Msg{Type: "data", From: "10.0.0.1:9", Session: "s", Payload: []byte("body")})
	magic := string(frameMagic[:])
	for _, dgram := range [][]byte{
		[]byte("not a p2pmss datagram"), // magic
		{},                              // magic
		[]byte(`p2p1{"type":"data","from":"a","payload":{"pkt":{}}}`), // magic: the old format
		good[:5],                               // truncated: ends before the flags
		[]byte(magic + "\x05\x01\x00\x00\x00"), // truncated: ends inside the trace id
		good[:9],                               // length: cut inside From, whose prefix now overruns
		[]byte(magic + "\x05\x00\x7fab"),       // length: From claims 127 bytes
		[]byte(magic + "\xee\x00\x00\x00"),     // type: unknown code
		[]byte(magic + "\x05\x80\x00\x00"),     // type: unknown flag
	} {
		if _, err := raw.Write(dgram); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := raw.Write(good); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the real message", func() bool { return len(got()) >= 1 })
	if types := got(); len(types) != 1 || types[0] != "data" {
		t.Fatalf("handler saw %q, want only the well-formed message", types)
	}
	for reason, want := range map[string]int64{"magic": 3, "truncated": 2, "length": 2, "type": 2} {
		got := reg.Counter("transport_decode_errors_total", "transport", "udp", "reason", reason).Value()
		if got != want {
			t.Errorf("transport_decode_errors_total{reason=%q} = %d, want %d", reason, got, want)
		}
	}
}

// An Impairment on the UDP endpoint drops outbound datagrams at the
// configured rate.
func TestUDPImpairmentDrops(t *testing.T) {
	h, got := collect()
	dst, err := ListenUDP("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	src, err := ListenUDP("127.0.0.1:0", func(Msg) {})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	imp := src.SetImpairment(Impairment{Seed: 11, Loss: 0.5})
	const n = 200
	for i := 0; i < n; i++ {
		if err := src.Send(dst.Name(), Msg{Type: fmt.Sprintf("m%d", i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	st := imp.Stats()
	if st.Dropped < n/4 || st.Dropped > 3*n/4 {
		t.Fatalf("impairer dropped %d of %d at Loss=0.5", st.Dropped, n)
	}
	waitFor(t, "surviving datagrams", func() bool { return int64(len(got())) >= (n-st.Dropped)*3/4 })
}
