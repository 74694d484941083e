package live

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
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
	"p2pmss/internal/wire"
)

// bulkContent is the benchmark's content shape: 2048 packets of 1 KiB.
func bulkContent() *content.Content {
	return content.New("bulk", randomData(2<<20, 19), 1024)
}

// hostedPeer is the serving peer of session "s" on a node that holds c
// alone under a one-node roster. Its packets reach a "leaf" endpoint
// that drops them, so a benchmark counts what a stream to a live leaf
// costs: a send to an address with no endpoint would skip the fabric's
// queue (it returns transport.ErrNoEndpoint at once).
func hostedPeer(tb testing.TB, c *content.Content, reg *metrics.Registry) *Peer {
	tb.Helper()
	f := transport.NewFabric()
	sink := f.Endpoint("leaf", func(transport.Msg) {})
	nd, err := NewNode(NodeConfig{Store: storeOf(c), Roster: []string{"cp"}, H: 3, Interval: 2, Seed: 1,
		Obs: engine.Observability{Metrics: reg}}, WithFabric(f, "cp"))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		nd.Close()
		sink.Close()
	})
	return serve(tb, nd, "s")
}

// level1 is the share of the second of two peers a leaf asks for an
// h = 2 enhanced content: data and content-level parities alike. (Of
// three peers' shares, each is all data or all parity.)
func level1(s seq.Sequence) seq.Sequence { return seq.Div(s, 2, 1) }

// handedOff is the share a TCoP hand-off gives child 1 of 2 from the
// level-1 share, with parities nested over level-1 parities: free as the
// engine holds it, payload-free, and ref the same share built from
// payload-backed packets — engine.ShareOut over
// parity.Enhance(c.Sequence(), 2).
func handedOff(c *content.Content) (free, ref seq.Sequence) {
	const mark = 24
	frees, _ := engine.ShareOut(level1(c.Enhanced(2)), mark, 100, 2, 3)
	refs, _ := engine.ShareOut(level1(parity.Enhance(c.Sequence(), 2)), mark, 100, 2, 3)
	return frees[1], refs[1]
}

// decodeData is the packet a data frame carries.
func decodeData(tb testing.TB, frame []byte) seq.Packet {
	tb.Helper()
	var b dataBody
	if err := b.DecodeWire(frame); err != nil {
		tb.Fatal(err)
	}
	return b.Pkt
}

// packetKind names what a packet is: data, a parity over data, or a
// parity nested over another parity.
func packetKind(p seq.Packet) string {
	if p.IsData() {
		return "data"
	}
	for i := 0; i < p.NumCovers(); i++ {
		if !p.Cover(i).IsData() {
			return "nested parity"
		}
	}
	return "parity"
}

// A well-framed request naming a division that does not exist used to
// reach seq.Div and panic on the transport goroutine, taking the node
// down. It is dropped and counted; a valid one still activates the peer.
func TestRequestOutsideDivisionIsRejected(t *testing.T) {
	reg := metrics.New()
	p := hostedPeer(t, content.New("movie", randomData(640, 5), 64), reg)
	good := requestBody{ContentID: "movie", Rate: 100, H: 2, Interval: 2, Index: 1, Leaf: "leaf"}
	bad := map[string]func(*requestBody){
		"index past H":   func(b *requestBody) { b.Index = 5 },
		"index == H":     func(b *requestBody) { b.Index = 2 },
		"negative index": func(b *requestBody) { b.Index = -1 },
		"zero H":         func(b *requestBody) { b.H = 0 },
		"zero interval":  func(b *requestBody) { b.Interval = 0 },
		"zero rate":      func(b *requestBody) { b.Rate = 0 },
		"negative rate":  func(b *requestBody) { b.Rate = -40 },
		"NaN rate":       func(b *requestBody) { b.Rate = math.NaN() },
		"infinite rate":  func(b *requestBody) { b.Rate = math.Inf(1) },
		// ⌊δ·rate⌋ overflows int: the engine's mark went negative.
		"absurd rate":  func(b *requestBody) { b.Rate = 1e164 },
		"h·H overflow": func(b *requestBody) { b.H, b.Interval = 1<<32, 1<<32 },
	}
	for name, spoil := range bad {
		b := good
		spoil(&b)
		p.handle(transport.Msg{Type: typeRequest, From: "leaf", Payload: b.AppendWire(nil)})
		if p.Active() {
			t.Fatalf("%s: the request activated the peer", name)
		}
	}
	// A parent's rates reach the same arithmetic through control and commit.
	for _, rate := range []float64{-1, math.NaN(), math.Inf(1), 1e164} {
		p.handle(transport.Msg{Type: typeControl, From: "cp9", Payload: controlBody{Parent: "cp9", Leaf: "leaf",
			ContentID: "movie", Rate: 100, ChildRate: rate, Children: 1, ChildIdx: 1, Round: 2}.AppendWire(nil)})
		p.handle(transport.Msg{Type: typeCommit, From: "cp9", Payload: commitBody{Parent: "cp9", Leaf: "leaf",
			ContentID: "movie", Rate: rate, Streams: 2, ChildIdx: 1, Round: 2}.AppendWire(nil)})
		if p.Active() {
			t.Fatalf("a control or commit at rate %v activated the peer", rate)
		}
	}
	rejected := int64(len(bad) + 2*4)
	invalid := reg.Counter("live_body_decode_errors_total", "role", "peer", "reason", "invalid", "session", "s")
	if got := invalid.Value(); got != rejected {
		t.Errorf(`live_body_decode_errors_total{reason="invalid"} = %d, want %d`, got, rejected)
	}
	p.handle(transport.Msg{Type: typeRequest, From: "leaf", Payload: good.AppendWire(nil)})
	if !p.Active() || invalid.Value() != rejected {
		t.Error("a valid request was not served")
	}
}

// Serving a request costs what the peer's own share costs, not what the
// content costs: the derivation is the content's, made once, and holds
// no payload. Before the cache a 2048-packet request made about 7,200
// allocations.
func TestServeRequestAllocs(t *testing.T) {
	c := bulkContent()
	p := hostedPeer(t, c, nil)
	b := requestBody{ContentID: "bulk", Rate: 8000, H: 3, Interval: 2, Index: 1, Leaf: "leaf"}
	p.onRequest(b, span.Context{})
	derived := c.Enhanced(2)
	if got := testing.AllocsPerRun(20, func() { p.onRequest(b, span.Context{}) }); got > 64 {
		t.Errorf("a warmed request for a third of 2048 packets: %.0f allocs, want <= 64", got)
	}
	if again := c.Enhanced(2); &again[0] != &derived[0] {
		t.Error("requests re-derived the enhanced sequence")
	}
	p.mu.Lock()
	stream := p.st.Snapshot().Seq()
	p.mu.Unlock()
	if want := seq.Div(parity.Enhance(seq.Range(1, c.NumPackets()), 2), 3, 1); !seq.Equal(stream, want) {
		t.Fatal("the peer streams a different share than Div(Esq(content, h), H, i)")
	}
	for _, pkt := range stream {
		if pkt.Payload != nil {
			t.Fatalf("%v carries %d bytes in the peer's schedule", pkt, len(pkt.Payload))
		}
	}
}

// Every packet a serving peer sends carries the bytes the payload-backed
// reference gives it — data, a content-level parity, and a parity nested
// by a TCoP hand-off — written into the streaming goroutine's reused
// buffers, so the send path allocates nothing per packet.
func TestSendWritesReferencePayloads(t *testing.T) {
	c := bulkContent()
	level2, ref2 := handedOff(c)
	levels := []struct{ free, ref seq.Sequence }{
		{level1(c.Enhanced(2)), level1(parity.Enhance(c.Sequence(), 2))},
		{level2, ref2},
	}
	kinds := make(map[string]int)
	var bufs sendBufs
	for _, lv := range levels {
		if !seq.Equal(lv.free, lv.ref) {
			t.Fatal("the payload-free share is not the reference's share")
		}
		for i, pkt := range lv.free {
			if pkt.Payload != nil {
				t.Fatalf("%v carries bytes in the schedule", pkt)
			}
			sent, want := decodeData(t, bufs.encode(c, pkt)), lv.ref[i]
			if !seq.SameIdentity(&sent, &want) || sent.Pos != want.Pos || !bytes.Equal(sent.Payload, want.Payload) {
				t.Fatalf("sent %v with %x, the reference is %v with %x", sent, sent.Payload, want, want.Payload)
			}
			kinds[packetKind(pkt)]++
		}
	}
	for _, k := range []string{"data", "parity", "nested parity"} {
		if kinds[k] == 0 {
			t.Errorf("no %s packet was sent", k)
		}
	}
	if n := testing.AllocsPerRun(20, func() {
		for _, pkt := range level2 {
			bufs.encode(c, pkt)
		}
	}); n != 0 {
		t.Errorf("encoding the %d frames of a level-2 share: %.0f allocs, want 0", len(level2), n)
	}

	// What the content cannot back goes out payload-free, not as a panic,
	// and so does everything a peer without the content streams.
	odd := seq.Sequence{{Index: 1 << 40, Pos: 1}, {Index: -1, Pos: 2}, seq.NewParity(nil, 4)}
	for _, pkt := range odd {
		if sent := decodeData(t, bufs.encode(c, pkt)); len(sent.Payload) != 0 {
			t.Errorf("%v went out with %d bytes", pkt, len(sent.Payload))
		}
	}
	for _, pkt := range level2[:8] {
		if sent := decodeData(t, bufs.encode(nil, pkt)); len(sent.Payload) != 0 {
			t.Errorf("%v went out with %d bytes from no content", pkt, len(sent.Payload))
		}
	}
	// What no packet spells — a parity covering a key that is not one, a
	// data packet naming covers — does not decode at all.
	for _, in := range [][]byte{oddPacket(seq.Parity, "x", "p(t1"), oddPacket(seq.Data, "t1")} {
		r := wire.NewReader(append(wire.AppendUvarint(nil, 1), in...))
		if got := seq.ReadSequence(&r); got != nil || r.Done() == nil {
			t.Errorf("%q decoded to %v", in, got)
		}
		var body dataBody
		if err := body.DecodeWire(in); err == nil {
			t.Errorf("data body %q decoded to %v", in, body.Pkt)
		}
	}
}

// A share is a schedule: a commit (TCoP) or control (DCoP) whose
// Assigned packets carry bytes — forged ones here — hands the engine a
// sequence holding none of them, and the peer streams every packet with
// the bytes the reference gives it.
func TestHandedOffShareCarriesNoBytes(t *testing.T) {
	c := bulkContent()
	free, ref := handedOff(c)
	forged := slices.Clone(ref)
	for i := range forged {
		forged[i].Payload = []byte("forged")
	}
	want := make(map[string][]byte, len(ref))
	for _, pkt := range ref {
		want[pkt.Key()] = pkt.Payload
	}
	for _, proto := range []Protocol{engine.TCoP, engine.DCoP} {
		f := transport.NewFabric()
		var mu sync.Mutex
		got := make(map[string][]byte)
		all := make(chan struct{})
		leafEP := f.Endpoint("leaf", func(m transport.Msg) {
			var b dataBody
			if m.Type == typeData && b.DecodeWire(m.Payload) == nil {
				mu.Lock()
				if _, dup := got[b.Pkt.Key()]; !dup {
					got[b.Pkt.Key()] = bytes.Clone(b.Pkt.Payload)
					if len(got) == len(want) {
						close(all)
					}
				}
				mu.Unlock()
			}
		})
		defer leafEP.Close()
		nd, err := NewNode(NodeConfig{Store: storeOf(c), Roster: []string{"cp"}, H: 3, Interval: 2, Protocol: proto, Seed: 1},
			WithFabric(f, "cp"))
		if err != nil {
			t.Fatal(err)
		}
		defer nd.Close()
		p := serve(t, nd, "s")
		typ, body := typeCommit, transport.WireAppender(commitBody{Parent: "cp9", Leaf: "leaf", ContentID: "bulk",
			Rate: 20000, Streams: 2, ChildIdx: 1, Round: 2, Assigned: forged})
		if proto == engine.DCoP {
			typ, body = typeControl, controlBody{Parent: "cp9", Leaf: "leaf", ContentID: "bulk",
				Rate: 20000, ChildRate: 20000, Children: 1, ChildIdx: 1, Round: 2, Assigned: forged}
		}
		p.handle(transport.Msg{Type: typ, From: "cp9", Payload: body.AppendWire(nil)})
		p.mu.Lock()
		stream := p.st.Snapshot().Seq()
		p.mu.Unlock()
		if !seq.Equal(stream, free) {
			t.Fatalf("%s: the peer streams %d packets, want the %d of the share", proto, len(stream), len(free))
		}
		for _, pkt := range append(stream, p.Outcome().Assigned()...) {
			if pkt.Payload != nil {
				t.Fatalf("%s: %v kept %q from the wire", proto, pkt, pkt.Payload)
			}
		}
		select {
		case <-all:
		case <-time.After(10 * time.Second):
		}
		mu.Lock()
		if len(got) != len(want) {
			t.Errorf("%s: the leaf received %d packets, want %d", proto, len(got), len(want))
		}
		for k, pl := range got {
			if !bytes.Equal(pl, want[k]) {
				t.Errorf("%s: %s arrived with %x, want %x", proto, k, pl, want[k])
				break
			}
		}
		mu.Unlock()
	}
}

// oddPacket is the wire form of a packet of the given kind at position
// 3 naming the given covers, which no constructor builds unless they
// are cover keys of a parity.
func oddPacket(kind seq.Kind, covers ...string) []byte {
	b := wire.AppendFloat(wire.AppendUvarint([]byte{byte(kind)}, 0), 3)
	return wire.AppendBytes(wire.AppendStrings(b, covers), nil)
}

// Sixteen sessions stream one shared content at once while the store's
// entry is replaced by fresh contents over the same bytes, each deriving
// its shares afresh. Every session delivers exactly, and — under -race —
// nobody wrote through a payload or cover list the sessions share.
func TestSharedContentConcurrentSessions(t *testing.T) {
	const sessions = 16
	data := randomData(12<<10, 61)
	pristine := bytes.Clone(data)
	c := content.New("m", data, 64)
	store := content.NewStore()
	store.Put(c)
	// Two populations over the one store, at parity intervals 2 and 3,
	// so the content's enhanced sequences are derived for both at once.
	var pops [2]*NodeCluster
	for i := range pops {
		nc, err := StartNodes(NodesConfig{Nodes: 7, Store: store, H: 3, Interval: 2 + i,
			Delta: 2 * time.Millisecond, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		pops[i] = nc
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		tick := time.NewTicker(3 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				store.Put(content.New("m", data, 64))
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ls, err := pops[i%2].Open(6, SessionConfig{
				ID: SessionID(fmt.Sprintf("s%d", i)), ContentID: "m", ContentSize: len(data), PacketSize: 64,
				Rate: 4000, RepairAfter: 100 * time.Millisecond,
			})
			if err != nil {
				t.Error(err)
				return
			}
			if err := ls.Wait(30 * time.Second); err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			if got, ok := ls.Bytes(); !ok || !bytes.Equal(got, pristine) {
				t.Errorf("session %d delivered other bytes", i)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	if !bytes.Equal(data, pristine) {
		t.Error("the content bytes were written to")
	}
}

// A leaf's node chooses the interval. Sessions naming more distinct
// intervals than a content caches are all served exactly, the later ones
// by deriving afresh; the cache stops growing (its bound is pinned by
// content.TestEnhancedIntervalBound).
func TestSessionsPastTheIntervalBound(t *testing.T) {
	data := randomData(6000, 62)
	store := content.NewStore()
	c := content.New("m", data, 64)
	store.Put(c)
	const intervals = 7
	for h := 1; h <= intervals; h++ {
		nc, err := StartNodes(NodesConfig{Nodes: 6, Store: store, H: 3, Interval: h,
			Delta: 2 * time.Millisecond, Seed: 78})
		if err != nil {
			t.Fatal(err)
		}
		ls, err := nc.Open(5, SessionConfig{ContentID: "m", ContentSize: len(data), PacketSize: 64,
			Rate: 4000, RepairAfter: 250 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		waitExact(t, ls, data, 20*time.Second)
		nc.Close()
	}
	cached := 0
	for h := 1; h <= intervals; h++ {
		if a, b := c.Enhanced(h), c.Enhanced(h); &a[0] == &b[0] {
			cached++
		}
	}
	if cached == 0 || cached == intervals {
		t.Errorf("%d of %d requested intervals are cached; want some, not all", cached, intervals)
	}
}

// Serving the same content again costs no memory: after K sessions the
// heap holds what it held after the first few, the content's one
// derivation included.
func TestHeapDoesNotGrowWithSessionsServed(t *testing.T) {
	data := randomData(256<<10, 63)
	c := content.New("m", data, 1024)
	store := storeOf(c)
	roster := []string{"cp0", "cp1", "cp2", "cp3"}
	// Each session's nodes close when it ends: a node the test still held
	// would be heap the sessions leave behind.
	serve := func(i int) {
		f := transport.NewFabric()
		var nodes []*Node
		defer func() {
			for _, nd := range nodes {
				nd.Close()
			}
		}()
		for _, name := range append(roster, "leaf") {
			nd, err := NewNode(NodeConfig{Store: store, Roster: roster, H: 3, Interval: 2, Delta: time.Millisecond,
				Seed: int64(100*i + 1)}, WithFabric(f, name))
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, nd)
		}
		leaf := open(t, nodes[len(roster)], SessionConfig{ContentID: "m", ContentSize: len(data), PacketSize: 1024,
			Rate: 20000, RepairAfter: 200 * time.Millisecond, Seed: int64(i + 1)})
		if err := leaf.Wait(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		if got, ok := leaf.Bytes(); !ok || !bytes.Equal(got, data) {
			t.Fatalf("session %d delivered other bytes", i)
		}
	}
	// heap is the live heap once every timer a closed session left behind
	// has fired and let go of its peer: the smallest of a few readings.
	heap := func() uint64 {
		least := ^uint64(0)
		var ms runtime.MemStats
		for try := 0; try < 8; try++ {
			time.Sleep(50 * time.Millisecond)
			runtime.GC()
			runtime.ReadMemStats(&ms)
			least = min(least, ms.HeapAlloc)
		}
		return least
	}
	for i := 0; i < 3; i++ {
		serve(i)
	}
	before := heap()
	const more = 12
	for i := 3; i < 3+more; i++ {
		serve(i)
	}
	after := heap()
	// One retained derivation would be size/h parity bytes plus ~90 B per
	// enhanced packet, about 160 KiB here; twelve would be 2 MiB.
	if grown := int64(after) - int64(before); grown > 128<<10 {
		t.Errorf("heap grew %d KiB over %d more sessions of one content (%d -> %d KiB)",
			grown>>10, more, before>>10, after>>10)
	}
}

// ---- serve-path benchmarks (BENCH_serve.json) --------------------------------

// BenchmarkServeRequest is a contents peer's cost of one content request
// for its third of a 2048-packet content: cold derives Esq(content, h)
// on a content nobody has served yet, warm is every request after it.
func BenchmarkServeRequest(b *testing.B) {
	req := requestBody{ContentID: "bulk", Rate: 8000, H: 3, Interval: 2, Index: 1, Leaf: "leaf"}
	data := randomData(2<<20, 19)
	b.Run("cold", func(b *testing.B) {
		p := hostedPeer(b, content.New("bulk", data, 1024), nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.n.cfg.Store.Put(content.New("bulk", data, 1024))
			p.onRequest(req, span.Context{})
		}
	})
	b.Run("warm", func(b *testing.B) {
		p := hostedPeer(b, content.New("bulk", data, 1024), nil)
		p.onRequest(req, span.Context{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.onRequest(req, span.Context{})
		}
	})
}

// BenchmarkEncodeShare is a serving peer's cost of writing every data
// frame of a level-2 share — a TCoP hand-off over Div(Esq(content, 2),
// 2, 1), nested parities included — payloads and all, into the streaming
// goroutine's reused buffers.
func BenchmarkEncodeShare(b *testing.B) {
	c := bulkContent()
	share, _ := handedOff(c)
	var bufs sendBufs
	for _, pkt := range share {
		bufs.encode(c, pkt)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pkt := range share {
			bufs.encode(c, pkt)
		}
	}
}
