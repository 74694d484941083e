package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"runtime"
	"testing"

	"p2pmss/internal/metrics"
)

// Every shape of envelope survives AppendFrame → DecodeFrame unchanged,
// re-encodes to the same bytes, and shares no memory with the frame it
// was decoded from (socket read buffers are reused).
func TestFrameRoundTrip(t *testing.T) {
	for _, m := range []Msg{
		{},
		{Type: "data", From: "127.0.0.1:4000", Session: "s-17", Payload: []byte{0, 1, 2, 3}},
		{Type: "announce", From: "a"},
		{Type: "gossip/digest", From: "b", Payload: []byte("inline type")},
		{Type: "control", From: "c", Session: "s", Trace: 1 << 63, Span: 7, Payload: []byte{9}},
		{Type: "commit", Span: 1},
	} {
		frame := AppendFrame(nil, m)
		got, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("decoded %+v, want %+v", got, m)
		}
		if again := AppendFrame(nil, got); !bytes.Equal(again, frame) {
			t.Errorf("%+v: re-encoded to different bytes", m)
		}
		for i := range frame {
			frame[i] = 0xAA
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%+v: decoded message aliases the frame buffer", m)
		}
	}
}

// A message has one spelling: the envelope refuses the alternatives its
// layout would otherwise admit, so that decode-then-encode is the
// identity on frames (what FuzzCodecRoundTrip checks).
func TestFrameOneSpelling(t *testing.T) {
	magic := string(frameMagic[:])
	for name, frame := range map[string]string{
		"listed type spelled inline":   magic + "\x00\x04data\x00\x00\x00",
		"trace flag on a zero context": magic + "\x05\x01" + "\x00\x00\x00\x00\x00\x00\x00\x00" + "\x00\x00\x00\x00\x00\x00\x00\x00" + "\x00\x00",
		"overlong length varint":       magic + "\x05\x00\x81\x00a\x00",
	} {
		if m, err := DecodeFrame([]byte(frame)); err == nil {
			t.Errorf("%s: accepted as %+v", name, m)
		}
	}
}

// readFrame's length header is four bytes the peer chose. A connection
// that claims a 16 MiB frame and delivers none of it must not cost 16 MiB.
func TestTCPHostileLengthAllocatesLittle(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(hdr[:]), nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, truncated) {
		t.Fatalf("err = %v, want the truncated frame error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Fatalf("a 4-byte header claiming %d bytes made readFrame allocate %d", MaxFrame, grew)
	}
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, _, err := readFrame(bytes.NewReader(hdr[:]), nil); !errors.Is(err, badLength) {
		t.Fatalf("oversize header: err = %v, want the length frame error", err)
	}
}

// A large frame that does arrive is read whole, in steps.
func TestTCPLargeFrameRoundTrip(t *testing.T) {
	m := Msg{Type: "control", From: "a", Payload: make([]byte, 5*readStep+123)}
	for i := range m.Payload {
		m.Payload[i] = byte(i)
	}
	var conn bytes.Buffer
	if _, err := writeFrame(&conn, m); err != nil {
		t.Fatal(err)
	}
	// iotest.OneByteReader-style dribble is overkill; a plain reader
	// already exercises the step loop (5 full steps and a remainder).
	got, buf, err := readFrame(&conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatal("large frame corrupted")
	}
	if buf != nil {
		t.Errorf("a %d-byte read buffer was kept for the connection", cap(buf))
	}
}

// Malformed frames on a TCP connection are counted by reason and end
// that connection; the endpoint keeps serving others.
func TestTCPCountsMalformedFrames(t *testing.T) {
	h, got := collect()
	e, err := ListenTCP("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	reg := metrics.New()
	e.Instrument(reg)
	count := func(reason string) int64 {
		return reg.Counter("transport_decode_errors_total", "transport", "tcp", "reason", reason).Value()
	}
	frame := func(body string) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
	}
	magic := string(frameMagic[:])
	for reason, wire := range map[string][]byte{
		"magic":     frame(`p2p1{"type":"data"}`),
		"truncated": frame(magic + "\x05\x00\x02ab\x00 and then the peer hangs up")[:12],
		"length":    binary.BigEndian.AppendUint32(nil, MaxFrame+1),
		"type":      frame(magic + "\x63\x00\x00\x00"),
	} {
		c, err := net.Dial("tcp", e.Name())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(wire); err != nil {
			t.Fatal(err)
		}
		c.Close()
		waitFor(t, "reason "+reason, func() bool { return count(reason) == 1 })
	}
	src, err := ListenTCP("127.0.0.1:0", func(Msg) {})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if err := src.Send(e.Name(), Msg{Type: "real"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the real message", func() bool { return len(got()) == 1 })
	if types := got(); types[0] != "real" {
		t.Fatalf("handler saw %q", types)
	}
}

// Receiving costs two allocations: the names and the body copy.
func TestDecodeFrameAllocs(t *testing.T) {
	frame := AppendFrame(nil, benchMsg())
	if got := testing.AllocsPerRun(200, func() {
		if _, err := DecodeFrame(frame); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Errorf("DecodeFrame of a data frame: %.0f allocs, want <= 2", got)
	}
}

// The socket send path builds its frame in one pooled buffer: a 1 KiB
// data message costs at most two allocations end to end (it was eleven
// when the frame was JSON inside JSON behind a magic prefix). The
// receiver is a bare socket nobody reads: AllocsPerRun counts every
// goroutine's allocations, and an endpoint's read loop decoding the
// frames would land in the count whenever the scheduler ran it inside
// the measured window.
func TestUDPSendAllocs(t *testing.T) {
	sink, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	tx, err := ListenUDP("127.0.0.1:0", func(Msg) {})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	m := benchMsg()
	to := sink.LocalAddr().String()
	allocs := testing.AllocsPerRun(200, func() {
		if err := tx.Send(to, m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("UDP Send of a 1 KiB data message: %.0f allocs, want <= 2", allocs)
	}
}
