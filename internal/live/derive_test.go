package live

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
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
// alone under a one-node roster.
func hostedPeer(tb testing.TB, c *content.Content, reg *metrics.Registry) *Peer {
	tb.Helper()
	nd, err := NewNode(NodeConfig{Store: storeOf(c), Roster: []string{"cp"}, H: 3, Interval: 2, Seed: 1,
		Obs: engine.Observability{Metrics: reg}}, WithFabric(transport.NewFabric(), "cp"))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { nd.Close() })
	return serve(tb, nd, "s")
}

// offTheWire is s as a commit's receiver sees it: payload-stripped,
// encoded and decoded again.
func offTheWire(tb testing.TB, s seq.Sequence) seq.Sequence {
	tb.Helper()
	r := wire.NewReader(seq.AppendSequence(nil, stripPayloads(s)))
	got := seq.ReadSequence(&r)
	if err := r.Done(); err != nil {
		tb.Fatal(err)
	}
	return got
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
// content costs: the derivation is the content's, made once. Before the
// cache a 2048-packet request made about 7,200 allocations.
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
	want := seq.Div(parity.Enhance(c.Sequence(), 2), 3, 1)
	if !seq.Equal(stream, want) {
		t.Fatal("the peer streams a different share than Div(Esq(content, h), H, i)")
	}
	for i, pkt := range stream {
		if !bytes.Equal(pkt.Payload, want[i].Payload) {
			t.Fatalf("%v carries other bytes than Enhance gave it", pkt)
		}
	}
}

// Hydrating a commit looks payloads up: one allocation for the sequence
// however long it is, and one XOR buffer per parity the content does not
// hold (one nested by a later coordination level).
func TestHydrateCommitAllocs(t *testing.T) {
	c := bulkContent()
	share := seq.Div(c.Enhanced(2), 3, 1)
	level1 := offTheWire(t, share)
	var got seq.Sequence
	if n := testing.AllocsPerRun(20, func() { got = hydrate(c, level1) }); n > 2 {
		t.Errorf("hydrating a level-1 commit of %d packets: %.0f allocs, want <= 2", len(level1), n)
	}
	checkHydrated(t, got, share)

	reenhanced := parity.Enhance(share[:60], 2)
	nested := 0
	for _, pkt := range reenhanced {
		if _, held := c.ParityPayload(pkt); !pkt.IsData() && !held {
			nested++
		}
	}
	if nested == 0 {
		t.Fatal("re-enhancing a share nested no parity")
	}
	level2 := offTheWire(t, reenhanced)
	if n := testing.AllocsPerRun(20, func() { got = hydrate(c, level2) }); n > float64(2+nested) {
		t.Errorf("hydrating a commit with %d nested parities: %.0f allocs, want <= %d", nested, n, 2+nested)
	}
	checkHydrated(t, got, reenhanced)

	// A parity of an interval the content has not cached, and the §3.6
	// nesting t⟨5,⟨7,8⟩⟩ spelled only by its key, take the XOR path too.
	other := parity.Enhance(c.Sequence()[:9], 3)
	checkHydrated(t, hydrate(c, offTheWire(t, other)), other)
	inner := seq.NewParity([]seq.Packet{c.Packet(7), c.Packet(8)}, 8.5)
	inner.Payload = parity.XOR([][]byte{c.Payload(7), c.Payload(8)})
	outer := seq.NewParity([]seq.Packet{c.Packet(5), inner}, 8.75)
	outer.Payload = parity.XOR([][]byte{c.Payload(5), inner.Payload})
	checkHydrated(t, hydrate(c, offTheWire(t, seq.Sequence{outer})), seq.Sequence{outer})

	// What the content cannot back hydrates to nothing, not to a panic.
	odd := seq.Sequence{{Index: 1 << 40, Pos: 1}, {Index: -1, Pos: 2}, seq.NewParity(nil, 4)}
	for _, pkt := range hydrate(c, offTheWire(t, odd)) {
		if pkt.Payload != nil {
			t.Errorf("%v hydrated to %d bytes", pkt, len(pkt.Payload))
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

// oddPacket is the wire form of a packet of the given kind at position
// 3 naming the given covers, which no constructor builds unless they
// are cover keys of a parity.
func oddPacket(kind seq.Kind, covers ...string) []byte {
	b := wire.AppendFloat(wire.AppendUvarint([]byte{byte(kind)}, 0), 3)
	return wire.AppendBytes(wire.AppendStrings(b, covers), nil)
}

func checkHydrated(t *testing.T, got, want seq.Sequence) {
	t.Helper()
	if !seq.Equal(got, want) {
		t.Fatalf("hydrated %v, want %v", got, want)
	}
	for i, pkt := range got {
		if !bytes.Equal(pkt.Payload, want[i].Payload) {
			t.Fatalf("%v hydrated to other bytes than the sender derived", pkt)
		}
	}
}

// Sixteen sessions stream one shared content at once while it is removed
// from the store and put back. Every one delivers exactly (a request
// that finds the content gone is recovered by the repair round), and —
// under -race — nobody wrote through a payload or cover list the
// sessions share.
func TestSharedContentConcurrentSessions(t *testing.T) {
	const sessions = 16
	data := randomData(12<<10, 61)
	pristine := bytes.Clone(data)
	c := content.New("m", data, 64)
	store := content.NewStore()
	store.Put(c)
	nc, err := StartNodes(NodesConfig{Nodes: 7, Store: store, H: 3, Interval: 2,
		Delta: 2 * time.Millisecond, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

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
				store.Remove("m")
				store.Put(c)
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ls, err := nc.Open(6, SessionConfig{
				ID: SessionID(fmt.Sprintf("s%d", i)), ContentID: "m", ContentSize: len(data), PacketSize: 64,
				Rate: 4000, Interval: 2 + i%2, RepairAfter: 100 * time.Millisecond,
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

// A leaf chooses the interval. Sessions naming more distinct intervals
// than a content caches are all served exactly, the later ones by
// deriving afresh; the cache stops growing (its bound is pinned by
// content.TestEnhancedIntervalBound).
func TestSessionsPastTheIntervalBound(t *testing.T) {
	data := randomData(6000, 62)
	store := content.NewStore()
	c := content.New("m", data, 64)
	store.Put(c)
	nc, err := StartNodes(NodesConfig{Nodes: 6, Store: store, H: 3, Interval: 2,
		Delta: 2 * time.Millisecond, Seed: 78})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	const intervals = 7
	for h := 1; h <= intervals; h++ {
		ls, err := nc.Open(5, SessionConfig{ContentID: "m", ContentSize: len(data), PacketSize: 64,
			Rate: 4000, Interval: h, RepairAfter: 250 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		waitExact(t, ls, data, 20*time.Second)
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

var hydrateSink seq.Sequence

// BenchmarkHydrateCommit is a child's cost of filling in the payloads of
// a committed level-1 share (1024 packets, a third of them parity) of a
// content it has already served once.
func BenchmarkHydrateCommit(b *testing.B) {
	c := bulkContent()
	assigned := offTheWire(b, seq.Div(c.Enhanced(2), 3, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hydrateSink = hydrate(c, assigned)
	}
}
