package live

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"p2pmss/internal/content"
	"p2pmss/internal/engine"
	"p2pmss/internal/metrics"
	"p2pmss/internal/parity"
	"p2pmss/internal/seq"
	"p2pmss/internal/span"
	"p2pmss/internal/transport"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire/*.bin from the current encoder")

// wireBody is both halves of a body's codec, for table-driven tests.
type wireBody interface {
	transport.WireAppender
	transport.WireDecoder
}

// newBody returns an empty body of the given message type (nil for a
// type the live runtime attaches no body codec to).
func newBody(typ string) wireBody {
	switch typ {
	case typeRequest:
		return new(requestBody)
	case typeControl:
		return new(controlBody)
	case typeConfirm:
		return new(confirmBody)
	case typeCommit:
		return new(commitBody)
	case typeData:
		return new(dataBody)
	case typeRepair:
		return new(repairBody)
	case typeJoin:
		return new(joinBody)
	}
	return nil
}

var bodyTypes = []string{typeRequest, typeControl, typeConfirm, typeCommit, typeData, typeRepair, typeJoin}

// sampleParity is the nested parity packet of the paper's §3.6 example,
// t⟨5,⟨7,8⟩⟩, with a payload.
func sampleParity() seq.Packet {
	inner := seq.NewParity([]seq.Packet{seq.NewData(7), seq.NewData(8)}, 8.5)
	p := seq.NewParity([]seq.Packet{seq.NewData(5), inner}, 8.75)
	p.Payload = []byte{0xde, 0xad, 0xbe, 0xef}
	return p
}

// control2048 is a control body whose Assigned holds 2048 payload-free
// packets (1707 data + 341 parity), the size a large content's first
// hand-off carries.
func control2048() controlBody {
	return controlBody{
		Parent: "10.0.0.1:7001", View: []string{"10.0.0.2:7001", "10.0.0.3:7001"}, Leaf: "10.0.0.9:7001",
		ContentID: "movie", SeqOffset: 12, Rate: 853.3333333333334, ChildRate: 284.44444444444446,
		Children: 2, ChildIdx: 1, Round: 2,
		Assigned: parity.Enhance(seq.Range(1, 1707), 5),
	}
}

// goldenBodies is one hand-written body per message type; their frames
// are checked in under testdata/wire so a format change is a visible diff.
func goldenBodies() map[string]transport.WireAppender {
	roster := []string{"10.0.0.1:7001", "10.0.0.2:7001", "10.0.0.3:7001"}
	bare := sampleParity()
	bare.Payload = nil // a share is a payload-free schedule
	assigned := seq.Sequence{seq.NewData(3), bare, seq.NewData(9)}
	return map[string]transport.WireAppender{
		typeRequest: requestBody{Roster: roster, ContentID: "movie", Rate: 400, H: 3, Interval: 2, Index: 1,
			Selected: roster[:2], Leaf: "10.0.0.9:7001"},
		typeControl: controlBody{Parent: roster[0], View: roster[1:], Leaf: "10.0.0.9:7001", ContentID: "movie",
			SeqOffset: 40, Rate: 200, ChildRate: 66.5, Children: 2, ChildIdx: 1, Round: 2, Assigned: assigned},
		typeConfirm: confirmBody{Child: roster[1], Accept: true, Round: 2},
		typeCommit: commitBody{Roster: roster, Parent: roster[0], ContentID: "movie", Leaf: "10.0.0.9:7001",
			Streams: 3, SeqOffset: 41, Rate: 66.5, ChildIdx: 1, Round: 2, Assigned: assigned},
		typeData:   dataBody{Pkt: seq.NewDataPayload(300, []byte("sixteen byte pkt"))},
		typeRepair: repairBody{ContentID: "movie", Leaf: "10.0.0.9:7001", Indices: []int64{4, 5, 130, 70000}},
		typeJoin:   joinBody{ContentID: "movie", Joiner: "10.0.0.4:7001"},
	}
}

func TestWireGolden(t *testing.T) {
	for typ, body := range goldenBodies() {
		m := transport.Msg{Type: typ, From: "10.0.0.1:7001", Session: "s-1", Payload: body.AppendWire(nil)}
		if typ == typeControl {
			m.Trace, m.Span = 0x0123456789abcdef, 42 // one golden carries the trace context
		}
		frame := transport.AppendFrame(nil, m)
		path := filepath.Join("testdata", "wire", typ+".bin")
		if *updateGolden {
			if err := os.WriteFile(path, frame, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run go test ./internal/live -run TestWireGolden -update after an intended format change)", err)
		}
		if !bytes.Equal(frame, want) {
			t.Errorf("%s frame changed:\n got %x\nwant %x\nan intended change bumps the version byte of the frame magic", typ, frame, want)
		}
		checkFrameRoundTrip(t, want)
	}
}

// checkFrameRoundTrip is the codec's contract on one well-formed frame:
// it decodes, the decoded value re-encodes to exactly the bytes it came
// from (every value has one spelling), and decoding those again yields
// an equal value.
func checkFrameRoundTrip(t testing.TB, frame []byte) {
	t.Helper()
	m, err := transport.DecodeFrame(frame)
	if err != nil {
		t.Fatalf("frame %x: %v", frame, err)
	}
	body := newBody(m.Type)
	if body == nil {
		if again := transport.AppendFrame(nil, m); !bytes.Equal(again, frame) {
			t.Fatalf("%s envelope re-encoded to\n%x, from\n%x", m.Type, again, frame)
		}
		return
	}
	if err := body.DecodeWire(m.Payload); err != nil {
		t.Fatalf("%s body %x: %v", m.Type, m.Payload, err)
	}
	again := m
	again.Payload = body.AppendWire(nil)
	reframed := transport.AppendFrame(nil, again)
	if !bytes.Equal(reframed, frame) {
		t.Fatalf("%s re-encoded to\n%x, from\n%x", m.Type, reframed, frame)
	}
	m2, err := transport.DecodeFrame(reframed)
	if err != nil {
		t.Fatal(err)
	}
	body2 := newBody(m2.Type)
	if err := body2.DecodeWire(m2.Payload); err != nil {
		t.Fatal(err)
	}
	// Compared as Go syntax, not with DeepEqual: a mutated Pos or Rate can
	// be NaN, which round-trips bit for bit yet never equals itself.
	if x, x2 := fmt.Sprintf("%#v %#v", m, body), fmt.Sprintf("%#v %#v", m2, body2); x != x2 {
		t.Fatalf("%s: decode(encode(x)) != x:\n%s\n%s", m.Type, x, x2)
	}
}

// tapEndpoint records every message its owner sends, and loses the ones
// rec says to swallow.
type tapEndpoint struct {
	transport.Endpoint
	rec func(to string, m transport.Msg) (swallow bool)
}

func (e tapEndpoint) Send(to string, m transport.Msg) error {
	if e.rec(to, m) {
		return nil
	}
	return e.Endpoint.Send(to, m)
}

// holdTap holds the messages its endpoints send while holding is set;
// release sends them in order and lets later sends straight through.
// A held message's payload is a copy: Send's is borrowed.
type holdTap struct {
	mu      sync.Mutex
	holding bool
	held    []heldSend
}

type heldSend struct {
	ep transport.Endpoint
	to string
	m  transport.Msg
}

// hold reports whether it kept m, to be sent later from ep.
func (h *holdTap) hold(ep transport.Endpoint, to string, m transport.Msg) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.holding {
		m.Payload = bytes.Clone(m.Payload)
		h.held = append(h.held, heldSend{ep, to, m})
	}
	return h.holding
}

func (h *holdTap) pending() []heldSend {
	h.mu.Lock()
	defer h.mu.Unlock()
	return slices.Clone(h.held)
}

// release sends every held message, under the lock so that no later send
// overtakes them. A message for an endpoint closed meanwhile is lost, as
// on a datagram network: its sender learns of it from a deadline.
func (h *holdTap) release() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, s := range h.held {
		s.ep.Send(s.to, s.m)
	}
	h.held, h.holding = nil, false
}

// mentions reports whether a data message carries one of the given
// packet keys, or a parity packet that covers one at any nesting depth —
// everything the leaf could learn those packets from.
func mentions(m transport.Msg, keys ...string) bool {
	var b dataBody
	if b.DecodeWire(m.Payload) != nil {
		return false
	}
	ids := strings.FieldsFunc(b.Pkt.Key(), func(r rune) bool { return r == '(' || r == ')' || r == ',' })
	for _, k := range keys {
		if slices.Contains(ids, k) {
			return true
		}
	}
	return false
}

// captureSession streams a small content through a real session of the
// given protocol — traced, discovered (so every member stamps the
// session roster on the wire), lossy on the way to the leaf — and
// returns a few frames of each kind of message its members sent.
// Whether that loss alone leaves a gap parity cannot close is up to the
// schedule, so the taps also withhold t1 from the leaf, in every form,
// until the leaf has asked for it three times: repair rounds always run,
// and the fuzzers' seed corpus is the same size on every run.
func captureSession(tb testing.TB, proto Protocol) [][]byte {
	tb.Helper()
	var mu sync.Mutex
	var toLeaf int
	kept := map[string]int{}
	var frames [][]byte
	data := randomData(3000, 77)
	// Announcements share the fabric's one pump with the session: every
	// 10 ms they slowed a loaded -race run's handshakes past the ~12 ms a
	// peer streams its share, and then no TCoP hand-off (no commit) came.
	nodes, leaf := hostNodes(tb, 6, storeOf(content.New("movie", data, 64)), NodeConfig{
		H: 3, Interval: 2, Protocol: proto, Delta: 2 * time.Millisecond, Seed: 1,
		Discover: true, Bootstrap: []string{"cp0"}, AnnounceInterval: 50 * time.Millisecond, DirectoryTTL: time.Minute,
		Obs: engine.Observability{Spans: span.NewCollector()},
	}, tapped(transport.NewFabric(), func(_ string, _ transport.Endpoint, to string, m transport.Msg) bool {
		if m.Type == typeAnnounce {
			return false // the discovery gossip is no session's traffic
		}
		kind := m.Type
		if m.Type == typeData && len(m.Payload) > 0 && m.Payload[0] == byte(seq.Parity) {
			kind = "parity"
		}
		mu.Lock()
		defer mu.Unlock()
		if kept[kind] < 3 {
			kept[kind]++
			frames = append(frames, transport.AppendFrame(nil, m))
		}
		if to != "leaf" {
			return false
		}
		if m.Type == typeData && kept[typeRepair] < 3 && mentions(m, "t1") {
			return true
		}
		toLeaf++
		return toLeaf%3 == 0 // every third message that reaches the link is lost
	}))
	// The fuzz targets measure allocations after this returns: nothing of
	// the session may still be running then.
	defer func() {
		for _, nd := range append(nodes, leaf) {
			nd.Close()
		}
	}()
	// A node announces itself only with something to serve: until then
	// no member pushes it the directory.
	leaf.cfg.Store.Put(content.New("leaf's own", []byte{0}, 1))
	if err := leaf.runtime().catalog.WaitContent("movie", 6, 10*time.Second); err != nil {
		tb.Fatal(err)
	}
	ls := open(tb, leaf, SessionConfig{ID: "cap", ContentID: "movie", Rate: 4000, ContentSize: len(data), PacketSize: 64,
		RepairAfter: 40 * time.Millisecond, Seed: 9})
	if err := ls.Wait(20 * time.Second); err != nil {
		tb.Fatal(err)
	}
	if got, ok := ls.Bytes(); !ok || !bytes.Equal(got, data) {
		tb.Fatal("captured session did not deliver its content")
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{typeRequest, typeControl, typeData, "parity", typeRepair}
	if proto == engine.TCoP {
		want = append(want, typeConfirm, typeCommit)
	}
	for _, kind := range want {
		if kept[kind] == 0 {
			tb.Fatalf("%s session sent no %s message", proto, kind)
		}
	}
	return frames
}

// seedFrames is the fuzzers' corpus: frames captured off a TCoP and a
// DCoP session, the goldens, a 2048-packet control, and envelopes the
// sessions do not produce (inline type, announce with an opaque body).
func seedFrames(tb testing.TB) [][]byte {
	frames := append(captureSession(tb, engine.TCoP), captureSession(tb, engine.DCoP)...)
	for typ, body := range goldenBodies() {
		frames = append(frames, transport.AppendFrame(nil, transport.Msg{Type: typ, From: "a", Payload: body.AppendWire(nil)}))
	}
	return append(frames,
		transport.AppendFrame(nil, transport.Msg{Type: typeControl, From: "10.0.0.1:7001", Session: "s-1", Span: 3,
			Payload: control2048().AppendWire(nil)}),
		transport.AppendFrame(nil, transport.Msg{Type: typeData, From: "b", Payload: dataBody{Pkt: sampleParity()}.AppendWire(nil)}),
		transport.AppendFrame(nil, transport.Msg{Type: typeAnnounce, From: "c", Payload: []byte(`{"records":[]}`)}),
		transport.AppendFrame(nil, transport.Msg{Type: "gossip", From: "d", Payload: []byte{1, 2, 3}}),
		transport.AppendFrame(nil, transport.Msg{}),
	)
}

// The seeds themselves hold the round-trip contract, fuzzing or not.
func TestCodecRoundTripSeeds(t *testing.T) {
	for _, frame := range seedFrames(t) {
		checkFrameRoundTrip(t, frame)
	}
}

// FuzzCodecRoundTrip mutates real frames. Whatever still decodes —
// envelope and body — must re-encode to the very bytes it was decoded
// from and decode again to a deeply equal value: since every value has
// exactly one spelling on the wire, that is decode(encode(x)) == x over
// everything the decoders can produce.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, frame := range seedFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := transport.DecodeFrame(frame)
		if err != nil {
			return
		}
		if body := newBody(m.Type); body != nil && body.DecodeWire(m.Payload) != nil {
			return
		}
		checkFrameRoundTrip(t, frame)
	})
}

// FuzzPeerHandle goes one step past the decoders: every frame that
// decodes is handed, as a transport would hand it, to contents peers of
// both protocols that have seen nothing, to ones already streaming, and
// to a leaf. A body
// can be well formed and still ask for what does not exist — part 5 of a
// division into 2, a hand-off at offset -1 — and no handler may panic on
// one: it would take the node process down.
func FuzzPeerHandle(f *testing.F) {
	for _, frame := range seedFrames(f) {
		f.Add(frame)
	}
	f.Add(transport.AppendFrame(nil, transport.Msg{Type: typeRequest, From: "leaf",
		Payload: requestBody{ContentID: "movie", Rate: 400, H: 2, Interval: 2, Index: 5, Leaf: "leaf"}.AppendWire(nil)}))
	// A commit whose share carries bytes its receiver must not keep.
	f.Add(transport.AppendFrame(nil, transport.Msg{Type: typeCommit, From: "cp9", Payload: commitBody{Parent: "cp9",
		ContentID: "movie", Leaf: "leaf", Streams: 2, Rate: 400, ChildIdx: 1, Round: 2,
		Assigned: seq.Sequence{seq.NewDataPayload(3, []byte("forged")), sampleParity()}}.AppendWire(nil)}))
	c := content.New("movie", randomData(3000, 77), 64)
	store := storeOf(c)
	names := []string{"cp0", "cp1", "cp2", "cp3", "cp4", "cp5"}
	start := requestBody{ContentID: "movie", Rate: 4000, H: 3, Interval: 2, Index: 0, Selected: names[:3], Leaf: "leaf"}.AppendWire(nil)
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := transport.DecodeFrame(frame)
		if err != nil {
			return
		}
		fab := transport.NewFabric()
		node := func(name string, proto Protocol) *Node {
			nd, err := NewNode(NodeConfig{Store: store, Roster: names, H: 3, Interval: 2, Protocol: proto,
				Delta: time.Millisecond, Seed: 1}, WithFabric(fab, name))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { nd.Close() })
			return nd
		}
		var peers []*Peer
		for i, proto := range []Protocol{engine.TCoP, engine.TCoP, engine.DCoP, engine.DCoP} {
			peers = append(peers, serve(t, node(names[i], proto), "fz"))
		}
		// A leaf that has sent nothing: built as Open builds it, not started.
		ln := node("leaf", engine.TCoP)
		leaf := newLeaf(ln, ln.runtime().ep, SessionConfig{ID: "fz", ContentID: "movie", H: 3, Interval: 2, Rate: 4000,
			ContentSize: c.Size(), PacketSize: c.PacketSize(), Seed: 1}, names, nil)
		defer leaf.Close()
		peers[1].handle(transport.Msg{Type: typeRequest, From: "leaf", Payload: start})
		peers[3].handle(transport.Msg{Type: typeRequest, From: "leaf", Payload: start})
		for _, p := range peers {
			p.handle(m)
		}
		leaf.handle(m)
	})
}

// allocatedBy reports how many bytes fn made the process allocate — the
// smallest of a few attempts, so another goroutine's allocation cannot
// be charged to it.
func allocatedBy(fn func()) uint64 {
	least := ^uint64(0)
	var before, after runtime.MemStats
	for try := 0; try < 3; try++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzCodecDecodeGarbage hands arbitrary bytes to the frame decoder (as
// a socket would) and to every body decoder (as a well-framed message
// with a hostile body would). None may panic, none may allocate more
// than a small multiple of its input however large the lengths inside
// claim to be, the frame decoder's names must not keep a reference into
// the read buffer (its payload borrows the buffer's tail), and a body
// that does decode is the one spelling of its value.
func FuzzCodecDecodeGarbage(f *testing.F) {
	for _, frame := range seedFrames(f) {
		f.Add(frame)
		if m, err := transport.DecodeFrame(frame); err == nil {
			f.Add([]byte(m.Payload))
		}
	}
	f.Add([]byte("p2p2\x05\x00\xff\xff\xff\xff\xff\xff\xff\xff\x7f"))
	f.Add([]byte("\xff\xff\xff\xff\x0f"))
	f.Fuzz(func(t *testing.T, in []byte) {
		budget := 32*uint64(len(in)) + 1024

		var m transport.Msg
		var err error
		sockbuf := bytes.Clone(in) // the engine's input must not be written to
		if got := allocatedBy(func() { m, err = transport.DecodeFrame(sockbuf) }); got > budget {
			t.Fatalf("DecodeFrame allocated %d bytes for %d bytes of input", got, len(in))
		}
		if err == nil {
			if len(m.Payload) > 0 && &m.Payload[len(m.Payload)-1] != &sockbuf[len(sockbuf)-1] {
				t.Fatal("DecodeFrame copied the payload instead of borrowing the frame's tail")
			}
			m.Payload = nil
			before := transport.AppendFrame(nil, m)
			for i := range sockbuf {
				sockbuf[i] = 0x5a // the socket reads its next datagram into the same buffer
			}
			if !bytes.Equal(transport.AppendFrame(nil, m), before) {
				t.Fatal("DecodeFrame's names alias its input")
			}
		}

		for _, typ := range bodyTypes {
			body := newBody(typ)
			if got := allocatedBy(func() { err = body.DecodeWire(in) }); got > budget {
				t.Fatalf("%s DecodeWire allocated %d bytes for %d bytes of input", typ, got, len(in))
			}
			if err == nil && !bytes.Equal(body.AppendWire(nil), in) {
				t.Fatalf("%s body %x decoded but re-encodes differently", typ, in)
			}
		}
	})
}

// The data path's allocation gates: encoding a packet into a buffer that
// is large enough allocates nothing, decoding one allocates only its
// identity — nothing for data, two blocks for a parity however nested
// (the payload aliases the message) — and the leaf's whole handler stays
// within that.
func TestDataBodyAllocs(t *testing.T) {
	data := dataBody{Pkt: seq.NewDataPayload(1234, make([]byte, 1024))}
	par := dataBody{Pkt: sampleParity()}
	buf := make([]byte, 0, 2048)
	for name, b := range map[string]dataBody{"data": data, "parity": par} {
		if got := testing.AllocsPerRun(100, func() { buf = b.AppendWire(buf[:0]) }); got != 0 {
			t.Errorf("%s: AppendWire into a supplied buffer: %.0f allocs, want 0", name, got)
		}
		enc := b.AppendWire(nil)
		limit := float64(2 * min(b.Pkt.NumCovers(), 1))
		var out dataBody
		if got := testing.AllocsPerRun(100, func() {
			if err := out.DecodeWire(enc); err != nil {
				t.Fatal(err)
			}
		}); got > limit {
			t.Errorf("%s: DecodeWire: %.0f allocs, want <= %.0f", name, got, limit)
		}
		if len(b.Pkt.Payload) > 0 && &out.Pkt.Payload[0] != &enc[len(enc)-len(out.Pkt.Payload)] {
			t.Errorf("%s: decoded payload is a copy; on the fabric it should alias the message", name)
		}
	}
}

// A well-framed message whose body does not decode is dropped — and
// counted, by the peer and by the leaf.
func TestBodyDecodeErrorsAreCounted(t *testing.T) {
	reg := metrics.New()
	f := transport.NewFabric()
	nodes, leafNode := hostNodes(t, 1, storeOf(content.New("movie", randomData(640, 5), 64)),
		NodeConfig{H: 1, Interval: 2, Seed: 1, Obs: engine.Observability{Metrics: reg}}, onFabric(f))
	// So slow a session that it is still open when the garbage arrives.
	leaf := open(t, leafNode, SessionConfig{ID: "l", ContentID: "movie", Rate: 1, ContentSize: 640, PacketSize: 64})
	src := f.Endpoint("src", func(transport.Msg) {})
	good := requestBody{ContentID: "movie", Rate: 100, H: 1, Interval: 2, Selected: []string{"cp0"}, Leaf: "leaf"}.AppendWire(nil)
	for _, m := range []transport.Msg{
		{Type: typeRequest, Session: "s", Payload: good[:len(good)-2]},
		{Type: typeConfirm, Session: "s", Payload: []byte{1, 'x', 7, 1}}, // Accept is neither 0 nor 1
		{Type: typeRepair, Session: "s", Payload: []byte(`{"content_id":"movie","indices":[1]}`)},
	} {
		if err := src.Send("cp0", m); err != nil {
			t.Fatal(err)
		}
	}
	for _, body := range [][]byte{{0, 1}, oddPacket(seq.Parity, "t1", "x")} {
		if err := src.Send("leaf", transport.Msg{Type: typeData, Session: string(leaf.ID), Payload: body}); err != nil {
			t.Fatal(err)
		}
	}
	f.Wait()
	for _, c := range []struct {
		role, session string
		want          int64
	}{{"peer", "s", 3}, {"leaf", "l", 2}} {
		if got := reg.Counter("live_body_decode_errors_total", "role", c.role, "reason", "decode", "session", c.session).Value(); got != c.want {
			t.Errorf("live_body_decode_errors_total{role=%q} = %d, want %d", c.role, got, c.want)
		}
	}
	if p := nodes[0].Serving()["s"]; p == nil || p.Active() {
		t.Error("a malformed request opened no session, or activated its peer")
	}
}

// ---- codec micro-benchmarks (BENCH_codec.json) ------------------------------

var benchSink []byte

func benchEncode(b *testing.B, body transport.WireAppender) {
	buf := body.AppendWire(nil)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = body.AppendWire(buf[:0])
	}
	benchSink = buf
}

func benchDecode(b *testing.B, body transport.WireAppender, into transport.WireDecoder) {
	buf := body.AppendWire(nil)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := into.DecodeWire(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRequest() requestBody {
	roster := make([]string, 24)
	for i := range roster {
		roster[i] = fmt.Sprintf("127.0.0.1:%d", 40000+i)
	}
	return requestBody{Roster: roster, ContentID: "c-17", Rate: 8000, H: 4, Interval: 4, Index: 2,
		Selected: roster[:4], Leaf: "127.0.0.1:40100"}
}

func benchData() dataBody { return dataBody{Pkt: seq.NewDataPayload(1234, make([]byte, 1024))} }

// benchParity is the parity packet of a four-packet recovery segment.
func benchParity() dataBody {
	for _, p := range parity.Enhance(seq.Range(1, 4), 4) {
		if !p.IsData() {
			p.Payload = make([]byte, 1024)
			return dataBody{Pkt: p}
		}
	}
	panic("no parity packet in an enhanced segment")
}

// benchParityNested is a parity of the second coordination level: the
// re-enhanced share of a peer covers a first-level parity among its
// data packets.
func benchParityNested() dataBody {
	share := seq.Div(parity.Enhance(seq.Range(1, 16), 4), 2, 0)
	for _, p := range parity.Enhance(share, 4) {
		for i := 0; i < p.NumCovers(); i++ {
			if !p.Cover(i).IsData() {
				p.Payload = make([]byte, 1024)
				return dataBody{Pkt: p}
			}
		}
	}
	panic("no nested parity packet in a re-enhanced share")
}

func BenchmarkCodecEncodeData(b *testing.B)         { benchEncode(b, benchData()) }
func BenchmarkCodecEncodeParity(b *testing.B)       { benchEncode(b, benchParity()) }
func BenchmarkCodecEncodeRequest(b *testing.B)      { benchEncode(b, benchRequest()) }
func BenchmarkCodecEncodeParityNested(b *testing.B) { benchEncode(b, benchParityNested()) }
func BenchmarkCodecEncodeControl2048(b *testing.B) {
	benchEncode(b, control2048())
}

func BenchmarkCodecDecodeData(b *testing.B)    { benchDecode(b, benchData(), new(dataBody)) }
func BenchmarkCodecDecodeParity(b *testing.B)  { benchDecode(b, benchParity(), new(dataBody)) }
func BenchmarkCodecDecodeRequest(b *testing.B) { benchDecode(b, benchRequest(), new(requestBody)) }
func BenchmarkCodecDecodeParityNested(b *testing.B) {
	benchDecode(b, benchParityNested(), new(dataBody))
}
func BenchmarkCodecDecodeControl2048(b *testing.B) {
	benchDecode(b, control2048(), new(controlBody))
}
