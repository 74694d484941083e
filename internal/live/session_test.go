package live

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"p2pmss/internal/content"
	"p2pmss/internal/engine"
	"p2pmss/internal/metrics"
	"p2pmss/internal/transport"
)

// startSession is the tests' one way to run the paper's session shape —
// contents peers CP_1..CP_n streaming one content to one leaf — on the
// node runtime: it starts peers+1 nodes sharing a one-content catalog and
// opens the session on the last node, so the contents peers are engine
// peers 0..peers-1. sc needs PacketSize and Rate; a zero RepairAfter
// means 500 ms. The population is closed with the test.
func startSession(t testing.TB, cfg NodesConfig, peers int, data []byte, sc SessionConfig) (*NodeCluster, *LeafSession) {
	t.Helper()
	store := content.NewStore()
	store.Put(content.New("m", data, sc.PacketSize))
	cfg.Nodes, cfg.Store = peers+1, store
	nc, err := StartNodes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nc.Close)
	sc.ContentID, sc.ContentSize = "m", len(data)
	if sc.RepairAfter == 0 {
		sc.RepairAfter = 500 * time.Millisecond
	}
	ls, err := nc.Open(peers, sc)
	if err != nil {
		t.Fatal(err)
	}
	return nc, ls
}

// waitExact waits for the session to complete and checks the
// reassembled bytes.
func waitExact(t testing.TB, ls *LeafSession, data []byte, timeout time.Duration) {
	t.Helper()
	if err := ls.Wait(timeout); err != nil {
		t.Fatal(err)
	}
	if got, ok := ls.Bytes(); !ok || !bytes.Equal(got, data) {
		t.Fatal("reassembled content differs")
	}
}

func TestSessionFabric(t *testing.T) {
	data := randomData(5000, 41)
	_, ls := startSession(t, NodesConfig{H: 3, Interval: 2, Seed: 1}, 6, data,
		SessionConfig{PacketSize: 64, Rate: 400})
	waitExact(t, ls, data, 20*time.Second)
}

func TestSessionTCPWithCrash(t *testing.T) {
	data := randomData(6000, 42)
	nc, ls := startSession(t, NodesConfig{H: 3, Interval: 2, Network: TCP, Protocol: engine.DCoP, Seed: 2}, 6, data,
		SessionConfig{PacketSize: 128, Rate: 600})
	time.Sleep(150 * time.Millisecond)
	if killed := nc.CrashServing(1); killed != 1 {
		t.Logf("no active peer yet; continuing without crash")
	}
	waitExact(t, ls, data, 30*time.Second)
}

// NodeCluster.Open arms the leaf's request-retry deadline on transports
// that lose a request without a send error, and only there; an explicit
// value always wins.
func TestNodeClusterOpenRequestRetryDefault(t *testing.T) {
	data := randomData(2000, 43)
	lossy := transport.Impairment{Seed: 1, Loss: 0.01}
	for _, tc := range []struct {
		name   string
		impair transport.Impairment
		set    time.Duration
		want   time.Duration
	}{
		{"reliable", transport.Impairment{}, 0, 0},
		{"datagram", lossy, 0, 150 * time.Millisecond},
		{"explicit", lossy, 40 * time.Millisecond, 40 * time.Millisecond},
	} {
		_, ls := startSession(t, NodesConfig{H: 2, Interval: 2, Seed: 44, Impair: tc.impair}, 4, data,
			SessionConfig{PacketSize: 64, Rate: 400, RepairAfter: 300 * time.Millisecond, RequestRetry: tc.set})
		if got := ls.sc.RequestRetry; got != tc.want {
			t.Errorf("%s: RequestRetry = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestStartNodesValidation(t *testing.T) {
	store := content.NewStore()
	store.Put(content.New("x", []byte("ab"), 1))
	if _, err := StartNodes(NodesConfig{Nodes: 3, H: 2, Interval: 2}); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := StartNodes(NodesConfig{Store: store, Nodes: 0, H: 1, Interval: 1}); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := StartNodes(NodesConfig{Store: store, Nodes: 2, H: 1, Interval: 1, Protocol: "bogus"}); err == nil {
		t.Error("bogus protocol accepted")
	}
	// Every probability of the impairment is checked, the burst model's
	// too: a NaN loss used to switch impairment off, and a loss above 1
	// to drop everything.
	for _, v := range []float64{-0.1, 1.5, math.NaN()} {
		for _, im := range []transport.Impairment{
			{Loss: v},
			{Duplicate: v},
			{Reorder: v},
			{Burst: &transport.BurstParams{PGoodToBad: v}},
			{Burst: &transport.BurstParams{PBadToGood: v}},
			{Burst: &transport.BurstParams{LossGood: v}},
			{Burst: &transport.BurstParams{LossBad: v}},
		} {
			if nc, err := StartNodes(NodesConfig{Store: store, Nodes: 2, H: 1, Interval: 1, Impair: im}); err == nil {
				nc.Close()
				t.Errorf("impairment %+v (burst %+v) accepted", im, im.Burst)
			}
		}
	}
}

// A catalog of contents: peers hold a Store and the leaf requests one
// content by ID.
func TestStoreBackedPeers(t *testing.T) {
	movieA := randomData(3000, 51)
	movieB := randomData(2000, 52)
	store := content.NewStore()
	store.Put(content.New("alpha", movieA, 64))
	store.Put(content.New("beta", movieB, 64))
	_, leafNode := hostNodes(t, 5, store, NodeConfig{H: 3, Interval: 2, Delta: 5 * time.Millisecond, Seed: 1},
		onFabric(transport.NewFabric()))
	sc := movieSession(movieB, 64, 9)
	sc.ContentID = "beta"
	waitExact(t, open(t, leafNode, sc), movieB, 20*time.Second)
}

// Requesting a content nobody holds: peers ignore the request and the
// leaf times out rather than receiving garbage.
func TestUnknownContentIgnored(t *testing.T) {
	_, leafNode := hostNodes(t, 2, storeOf(content.New("alpha", randomData(500, 53), 64)),
		NodeConfig{H: 2, Interval: 2, Delta: 5 * time.Millisecond, Seed: 1}, onFabric(transport.NewFabric()))
	leaf := open(t, leafNode, SessionConfig{ContentID: "missing", Rate: 100, ContentSize: 500, PacketSize: 64, Seed: 3})
	if err := leaf.Wait(400 * time.Millisecond); err == nil {
		t.Fatal("delivery of a content nobody holds")
	}
	if leaf.Progress() != 0 {
		t.Errorf("progress = %d for unknown content", leaf.Progress())
	}
}

// Closing a session's participant detaches it from its node, once: the
// table entry, the live_node_sessions_active gauge and the admission
// slot all go with it, whether the leaf or the serving peer closes.
func TestSessionCloseDetaches(t *testing.T) {
	reg := metrics.New()
	cfg := NodeConfig{H: 1, Interval: 2, Seed: 1, MaxSessions: 1, Obs: engine.Observability{Metrics: reg}}
	f := transport.NewFabric()
	nodes, leafNode := hostNodes(t, 1, storeOf(content.New("movie", randomData(640, 55), 64)), cfg, onFabric(f))
	detached := func(nd *Node, role string) {
		t.Helper()
		if n := sessionCount(nd); n != 0 {
			t.Errorf("%s: %d sessions admitted after close", nd.Addr(), n)
		}
		if g := reg.Gauge("live_node_sessions_active", "node", nd.Addr(), "role", role).Value(); g != 0 {
			t.Errorf("%s: %s gauge %v after close", nd.Addr(), role, g)
		}
	}
	// So slow that the session is still open when it closes.
	sc := SessionConfig{ContentID: "movie", Rate: 1, ContentSize: 640, PacketSize: 64}
	ls := open(t, leafNode, sc)
	if _, err := leafNode.Open(sc); err == nil {
		t.Fatal("a second session passed a budget of one")
	}
	ls.Close()
	ls.Close()
	if n := leafNode.LeafCount(); n != 0 {
		t.Errorf("%d leaves in the table after close", n)
	}
	detached(leafNode, "leaf")
	open(t, leafNode, sc).Close() // the slot is free again

	f.Wait() // the leaf's request has opened the session on cp0
	p := serve(t, nodes[0], ls.ID)
	if p != nodes[0].Serving()[ls.ID] {
		t.Fatal("the session's serving peer is not the node's")
	}
	p.Close()
	p.Close()
	if n := len(nodes[0].Serving()); n != 0 {
		t.Errorf("%d serving peers in the table after close", n)
	}
	detached(nodes[0], "peer")
	serve(t, nodes[0], "another").Close() // the slot is free again
}

// TestNeverActivatedPeersAreReaped: a request for a content the node
// does not hold opens a serving peer that never activates. Once it has
// been quiet for ReapAfter the reaper frees it, its streaming goroutine
// and its admission slot, so such requests cannot pin the node's
// MaxSessions budget.
func TestNeverActivatedPeersAreReaped(t *testing.T) {
	const grace = time.Hour // the node's own reaper never frees them
	f := transport.NewFabric()
	nodes, _ := hostNodes(t, 1, storeOf(content.New("movie", randomData(640, 56), 64)),
		NodeConfig{H: 1, Interval: 2, Seed: 1, MaxSessions: 4, ReapAfter: grace}, onFabric(f))
	nd := nodes[0]
	src := f.Endpoint("src", func(transport.Msg) {})
	req := requestBody{ContentID: "elsewhere", Rate: 100, H: 1, Interval: 2, Selected: []string{"cp0"}, Leaf: "src"}.AppendWire(nil)
	for i := 0; i < 4; i++ {
		if err := src.Send("cp0", transport.Msg{Type: typeRequest, Session: fmt.Sprintf("s%d", i), Payload: req}); err != nil {
			t.Fatal(err)
		}
	}
	f.Wait()
	if n, used := len(nd.Serving()), sessionCount(nd); n != 4 || used != 4 {
		t.Fatalf("%d serving peers holding %d slots, want 4 and 4", n, used)
	}
	for _, p := range nd.Serving() {
		if p.Active() {
			t.Fatal("a request for a content the node does not hold activated its peer")
		}
	}
	nd.reap(time.Now().Add(grace / 2))
	if n := len(nd.Serving()); n != 4 {
		t.Fatalf("%d serving peers left after reaping inside the grace, want 4", n)
	}
	nd.reap(time.Now().Add(grace))
	if n, used := len(nd.Serving()), sessionCount(nd); n != 0 || used != 0 {
		t.Fatalf("%d serving peers holding %d slots after the reap, want none", n, used)
	}
	serve(t, nd, "another").Close() // the budget is free again
}
