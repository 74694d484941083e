package live

import (
	"bytes"
	"testing"
	"time"

	"p2pmss/internal/content"
	"p2pmss/internal/engine"
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
	nc, ls := startSession(t, NodesConfig{H: 3, Interval: 2, UseTCP: true, Protocol: engine.DCoP, Seed: 2}, 6, data,
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
		if got := ls.cfg.RequestRetry; got != tc.want {
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
	if _, err := StartNodes(NodesConfig{Store: store, Nodes: 2, H: 1, Interval: 1, UseTCP: true, UseUDP: true}); err == nil {
		t.Error("TCP and UDP together accepted")
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

	f := newFabricFor(t)
	roster := []string{"s0", "s1", "s2", "s3", "s4"}
	var peers []*Peer
	for i, name := range roster {
		p, err := NewPeer(PeerConfig{
			Store:    store,
			Roster:   roster,
			H:        3,
			Interval: 2,
			Delta:    5 * time.Millisecond,
			Seed:     int64(i) + 1,
		}, WithFabric(f, name))
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, p)
	}
	defer closeAll(peers)

	leaf, err := NewLeaf(LeafConfig{
		Roster:      roster,
		H:           3,
		Interval:    2,
		Rate:        400,
		ContentID:   "beta",
		ContentSize: len(movieB),
		PacketSize:  64,
		RepairAfter: 300 * time.Millisecond,
		Seed:        9,
	}, WithFabric(f, "leaf"))
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()
	if err := leaf.Start(); err != nil {
		t.Fatal(err)
	}
	if err := leaf.Wait(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	got, ok := leaf.Bytes()
	if !ok || !bytes.Equal(got, movieB) {
		t.Fatal("store-backed session delivered wrong bytes")
	}
}

// Requesting a content nobody holds: peers ignore the request and the
// leaf times out rather than receiving garbage.
func TestUnknownContentIgnored(t *testing.T) {
	store := content.NewStore()
	store.Put(content.New("alpha", randomData(500, 53), 64))
	f := newFabricFor(t)
	roster := []string{"u0", "u1"}
	var peers []*Peer
	for i, name := range roster {
		p, err := NewPeer(PeerConfig{
			Store: store, Roster: roster, H: 2, Interval: 2,
			Delta: 5 * time.Millisecond, Seed: int64(i) + 1,
		}, WithFabric(f, name))
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, p)
	}
	defer closeAll(peers)
	leaf, err := NewLeaf(LeafConfig{
		Roster: roster, H: 2, Interval: 2, Rate: 100,
		ContentID: "missing", ContentSize: 500, PacketSize: 64, Seed: 3,
	}, WithFabric(f, "leaf"))
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()
	if err := leaf.Start(); err != nil {
		t.Fatal(err)
	}
	if err := leaf.Wait(400 * time.Millisecond); err == nil {
		t.Fatal("delivery of a content nobody holds")
	}
	if leaf.Progress() != 0 {
		t.Errorf("progress = %d for unknown content", leaf.Progress())
	}
}

func newFabricFor(t *testing.T) *transport.Fabric {
	t.Helper()
	return transport.NewFabric()
}
