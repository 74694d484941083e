package live

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"p2pmss/internal/content"
	"p2pmss/internal/engine"
	"p2pmss/internal/transport"
)

// hostNodes starts a node-hosted session's population: n contents
// nodes cp0… holding store under one roster, and a leaf node "leaf"
// outside it, every one configured by cfg (Store and Roster are set
// here) and attached by attach(name). The nodes close with the test.
func hostNodes(tb testing.TB, n int, store *content.Store, cfg NodeConfig, attach func(name string) Transport) (nodes []*Node, leaf *Node) {
	tb.Helper()
	cfg.Roster = nil
	for i := 0; i < n; i++ {
		cfg.Roster = append(cfg.Roster, fmt.Sprintf("cp%d", i))
	}
	start := func(name string, st *content.Store) *Node {
		c := cfg
		c.Store = st
		nd, err := NewNode(c, attach(name))
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { nd.Close() })
		return nd
	}
	for _, name := range cfg.Roster {
		nodes = append(nodes, start(name, store))
	}
	return nodes, start("leaf", content.NewStore())
}

// onFabric attaches every node to f under its name.
func onFabric(f *transport.Fabric) func(string) Transport {
	return func(name string) Transport { return WithFabric(f, name) }
}

// tapped attaches every node to f under its name through a tapEndpoint:
// rec sees each message a node sends, with the node's name and
// endpoint, and loses the ones it returns true for.
func tapped(f *transport.Fabric, rec func(name string, ep transport.Endpoint, to string, m transport.Msg) bool) func(string) Transport {
	return func(name string) Transport {
		return WithAttach(func(h transport.Handler) (transport.Endpoint, error) {
			ep := f.Endpoint(name, h)
			return tapEndpoint{ep, func(to string, m transport.Msg) bool { return rec(name, ep, to, m) }}, nil
		})
	}
}

// storeOf is a catalog holding c alone.
func storeOf(c *content.Content) *content.Store {
	s := content.NewStore()
	s.Put(c)
	return s
}

// open opens sc on nd, failing the test on an error.
func open(tb testing.TB, nd *Node, sc SessionConfig) *LeafSession {
	tb.Helper()
	ls, err := nd.Open(sc)
	if err != nil {
		tb.Fatal(err)
	}
	return ls
}

// servingPeers returns each node's serving peer of session sid, nil
// where the node serves none.
func servingPeers(nodes []*Node, sid SessionID) []*Peer {
	out := make([]*Peer, len(nodes))
	for i, nd := range nodes {
		out[i] = nd.Serving()[sid]
	}
	return out
}

// serve returns nd's serving peer of session sid, created under the
// node's roster the way a session-opening message creates it.
func serve(tb testing.TB, nd *Node, sid SessionID) *Peer {
	tb.Helper()
	p := nd.servingPeer(nd.runtime(), sid, nd.cfg.Roster)
	if p == nil {
		tb.Fatalf("%s admits no session %q", nd.Addr(), sid)
	}
	return p
}

// movieSession is the session the fabric tests open: data in packets of
// packetSize at 400 packets/s, repaired after 300 ms.
func movieSession(data []byte, packetSize int, seed int64) SessionConfig {
	return SessionConfig{ContentID: "movie", ContentSize: len(data), PacketSize: packetSize,
		Rate: 400, RepairAfter: 300 * time.Millisecond, Seed: seed}
}

// buildFabricSession hosts n contents nodes and a leaf node over an
// in-memory fabric.
func buildFabricSession(t *testing.T, n, H, interval int, data []byte, packetSize int, seed int64) (*transport.Fabric, []*Node, *Node) {
	t.Helper()
	f := transport.NewFabric()
	nodes, leaf := hostNodes(t, n, storeOf(content.New("movie", data, packetSize)),
		NodeConfig{H: H, Interval: interval, Delta: 5 * time.Millisecond, Seed: seed}, onFabric(f))
	return f, nodes, leaf
}

func randomData(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestLiveStreamingComplete(t *testing.T) {
	data := randomData(6000, 1)
	_, nodes, leafNode := buildFabricSession(t, 8, 3, 2, data, 64, 10)
	leaf := open(t, leafNode, movieSession(data, 64, 1010))
	waitExact(t, leaf, data, 20*time.Second)
	// Multiple peers should actually have transmitted.
	active := 0
	for _, p := range servingPeers(nodes, leaf.ID) {
		if p != nil && p.Sent() > 0 {
			active++
		}
	}
	if active < 3 {
		t.Errorf("only %d peers transmitted", active)
	}
}

func TestLiveStreamingSurvivesPeerCrash(t *testing.T) {
	data := randomData(8000, 2)
	_, nodes, leafNode := buildFabricSession(t, 8, 4, 2, data, 64, 20)
	leaf := open(t, leafNode, movieSession(data, 64, 1020))
	// Crash two transmitting nodes shortly after streaming begins.
	time.Sleep(150 * time.Millisecond)
	crashed := 0
	for i, p := range servingPeers(nodes, leaf.ID) {
		if p != nil && p.Active() && crashed < 2 {
			nodes[i].Close()
			crashed++
		}
	}
	if crashed == 0 {
		t.Fatal("no active peer to crash")
	}
	waitExact(t, leaf, data, 30*time.Second)
}

func TestLiveStreamingWithLoss(t *testing.T) {
	data := randomData(5000, 3)
	f, _, leafNode := buildFabricSession(t, 6, 3, 2, data, 64, 30)
	// 5% message loss on the fabric (control and data alike).
	f.SetImpairment(transport.Impairment{Seed: 99, Loss: 0.05})
	leaf := open(t, leafNode, movieSession(data, 64, 1030))
	waitExact(t, leaf, data, 30*time.Second)
}

func TestLiveOverTCP(t *testing.T) {
	data := randomData(3000, 4)
	nc, ls := startSession(t, NodesConfig{H: 3, Interval: 2, UseTCP: true, Seed: 77}, 5, data,
		SessionConfig{PacketSize: 128, Rate: 400, RepairAfter: 400 * time.Millisecond})
	if addr := nc.Nodes[0].Addr(); !strings.HasPrefix(addr, "127.0.0.1:") {
		t.Fatalf("node address %q is not a TCP loopback socket", addr)
	}
	waitExact(t, ls, data, 30*time.Second)
}

// NewNode validates and resolves the config every session it hosts
// reads: no node without a store, a positive fanout and interval.
func TestNewNodeValidation(t *testing.T) {
	store := storeOf(content.New("x", []byte("data"), 2))
	for name, cfg := range map[string]NodeConfig{
		"nil store":     {H: 1, Interval: 1},
		"zero H":        {Store: store, H: 0, Interval: 1},
		"zero interval": {Store: store, H: 1, Interval: 0},
	} {
		if nd, err := NewNode(cfg, WithFabric(transport.NewFabric(), "x")); err == nil {
			nd.Close()
			t.Errorf("%s accepted", name)
		}
	}
}

// Open validates a session against what its node can serve: no more
// selected peers than serve the content, a positive rate.
func TestOpenValidation(t *testing.T) {
	_, leaf := hostNodes(t, 1, storeOf(content.New("x", []byte("data"), 2)), NodeConfig{H: 1, Interval: 1},
		onFabric(transport.NewFabric()))
	if _, err := leaf.Open(SessionConfig{ContentID: "x", H: 2, Rate: 1, ContentSize: 4, PacketSize: 2}); err == nil {
		t.Error("H > serving peers accepted")
	}
	if _, err := leaf.Open(SessionConfig{ContentID: "x", Rate: 0, ContentSize: 4, PacketSize: 2}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := leaf.Open(SessionConfig{ContentID: "x", Rate: 1, ContentSize: 4, PacketSize: 2}); err != nil {
		t.Errorf("a valid session rejected: %v", err)
	}
}

// Live DCoP: redundant single-round assignment with merge semantics
// still delivers the content byte-for-byte.
func TestLiveDCoPStreamingComplete(t *testing.T) {
	data := randomData(6000, 11)
	_, leafNode := hostNodes(t, 8, storeOf(content.New("movie", data, 64)),
		NodeConfig{H: 3, Interval: 2, Delta: 5 * time.Millisecond, Protocol: engine.DCoP, Seed: 1},
		onFabric(transport.NewFabric()))
	leaf := open(t, leafNode, movieSession(data, 64, 123))
	waitExact(t, leaf, data, 20*time.Second)
}

// NewNode rejects an unknown protocol and resolves an empty one to TCoP
// for every session it serves.
func TestLivePeerProtocolValidation(t *testing.T) {
	store := storeOf(content.New("x", []byte("data"), 2))
	if _, err := NewNode(NodeConfig{Store: store, H: 1, Interval: 1, Protocol: "bogus"}, WithFabric(transport.NewFabric(), "x")); err == nil {
		t.Error("bogus protocol accepted")
	}
	nd, err := NewNode(NodeConfig{Store: store, Roster: []string{"x"}, H: 1, Interval: 1}, WithFabric(transport.NewFabric(), "x"))
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if nd.cfg.Protocol != engine.TCoP || nd.engine.DCoP {
		t.Errorf("default protocol = %q", nd.cfg.Protocol)
	}
}
