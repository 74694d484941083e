package live

import (
	"sync"
	"testing"
	"time"

	"p2pmss/internal/content"
	"p2pmss/internal/engine"
	"p2pmss/internal/seq"
	"p2pmss/internal/transport"
)

// A serving peer whose hand-off mark lies past the end of its share
// switches once the share runs out, so it quiesces and the node reaps
// it. With Delta 100 ms the mark is ⌊2δ·600 pkt/s⌋ = 120 packets ahead
// of a 12-packet share; a switch applied only "at the mark" never
// happened, and the peer stayed busy for as long as the node lived.
func TestServingPeerPastItsMarkIsReaped(t *testing.T) {
	store, data := chaosStore(1, 1<<10, 64, 7400)
	nc, err := StartNodes(NodesConfig{
		Nodes: 4, Store: store, H: 2, Interval: 2,
		Delta: 100 * time.Millisecond, ReapAfter: 300 * time.Millisecond, Seed: 7401,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Repair fetches a slot whose peer was adopted as a child before its
	// request arrived and so ignored it; the session always completes.
	ls, err := nc.Open(0, SessionConfig{ContentID: "c0", ContentSize: len(data["c0"]), PacketSize: 64, Rate: 800,
		RepairAfter: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitExact(t, ls, data["c0"], 10*time.Second)
	deadline := time.Now().Add(10 * 300 * time.Millisecond)
	for {
		serving := 0
		for _, nd := range nc.Nodes {
			serving += len(nd.Serving())
		}
		if serving == 0 {
			return
		}
		if time.Now().After(deadline) {
			for _, nd := range nc.Nodes {
				for sid, p := range nd.Serving() {
					t.Errorf("%s still serves %s after sending %d packets", nd.Addr(), sid, p.Sent())
				}
			}
			t.Fatalf("%d serving peers never reaped", serving)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// A DCoP parent merging a redundant control between its hand-off and
// the mark keeps the switch where it was planned: on the marked packet,
// not on whatever packet lands at the mark's old index once the merge
// has restarted the stream. Switching later would resend packets the
// child now streams; this one sends none of them (but those its own
// share holds too: re-enhancing the tail can rebuild a parity it
// already carries, and the rebuilt copy lands in either part).
func TestMergeBeforeMarkKeepsSwitchPoint(t *testing.T) {
	c := content.New("movie", randomData(400*16, 41), 16)
	f := transport.NewFabric()
	var mu sync.Mutex
	sent := make(map[string]bool) // what the parent sent the leaf
	var given seq.Sequence        // the child's share
	leafEP := f.Endpoint("leaf", func(m transport.Msg) {
		var b dataBody
		if m.Type == typeData && b.DecodeWire(m.Payload) == nil {
			mu.Lock()
			sent[b.Pkt.Key()] = true
			mu.Unlock()
		}
	})
	defer leafEP.Close()
	handedOff := make(chan struct{})
	var once sync.Once
	childEP := f.Endpoint("child", func(m transport.Msg) {
		var b controlBody
		if m.Type == typeControl && b.DecodeWire(m.Payload) == nil {
			mu.Lock()
			given = b.Assigned
			mu.Unlock()
			once.Do(func() { close(handedOff) })
		}
	})
	defer childEP.Close()
	nd, err := NewNode(NodeConfig{
		Store: storeOf(c), Roster: []string{"parent", "child"}, H: 1, Interval: 2,
		Delta: 500 * time.Millisecond, Protocol: engine.DCoP, Seed: 1,
	}, WithFabric(f, "parent"))
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	p := serve(t, nd, "s")

	// The whole enhanced content at 150 packets/s; the one child takes a
	// share from the mark ⌊2δ·150⌋ = 150 packets in.
	req := requestBody{ContentID: "movie", Rate: 100, H: 1, Interval: 2, Index: 0, Selected: []string{"parent"}, Leaf: "leaf"}
	p.handle(transport.Msg{Type: typeRequest, From: "leaf", Payload: req.AppendWire(nil)})
	select {
	case <-handedOff:
	case <-time.After(5 * time.Second):
		t.Fatal("the parent handed nothing off")
	}
	for p.Sent() < 3 {
		time.Sleep(time.Millisecond)
	}
	// A second parent assigns packets the peer already holds: the merge
	// restarts the stream on its unsent remainder, well before the mark.
	redundant := controlBody{
		Parent: "other", Leaf: "leaf", ContentID: "movie", Rate: 100, ChildRate: 10,
		Children: 1, ChildIdx: 1, Round: 2, Assigned: c.Enhanced(2)[500:510],
	}
	p.handle(transport.Msg{Type: typeControl, From: "other", Payload: redundant.AppendWire(nil)})
	if got := p.Sent(); got >= 150 {
		t.Fatalf("the redundant control came after the mark (%d packets sent); nothing was tested", got)
	}
	for p.Sent() < 210 {
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	parts, _ := engine.ShareOut(c.Enhanced(2), 150, 150, 2, 2)
	if !seq.Equal(given, parts[1]) {
		t.Fatalf("the child was given %d packets, want the %d from the mark at 150", len(given), len(parts[1]))
	}
	kept := make(map[string]bool)
	for _, pkt := range parts[0] {
		kept[pkt.Key()] = true
	}
	for _, pkt := range given {
		if sent[pkt.Key()] && !kept[pkt.Key()] {
			t.Errorf("the parent sent %v, which the child streams", pkt)
		}
	}
}
