package live

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"p2pmss/internal/content"
	"p2pmss/internal/engine"
	"p2pmss/internal/transport"
)

// buildFabricSession wires n peers and a leaf over an in-memory fabric.
func buildFabricSession(t *testing.T, n, H, interval int, data []byte, packetSize int, seed int64) (*transport.Fabric, []*Peer, *Leaf) {
	t.Helper()
	f := transport.NewFabric()
	c := content.New("movie", data, packetSize)

	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('A'+i%26)) + string(rune('0'+i/26))
	}
	peers := make([]*Peer, n)
	for i, name := range names {
		cfg := PeerConfig{
			Content:  c,
			Roster:   names,
			H:        H,
			Interval: interval,
			Delta:    5 * time.Millisecond,
			Seed:     seed + int64(i) + 1,
		}
		p, err := NewPeer(cfg, WithFabric(f, name))
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
	}
	leaf, err := NewLeaf(LeafConfig{
		Roster:      names,
		H:           H,
		Interval:    interval,
		Rate:        400, // packets per second
		ContentSize: len(data),
		PacketSize:  packetSize,
		RepairAfter: 300 * time.Millisecond,
		Seed:        seed + 1000,
	}, WithFabric(f, "leaf"))
	if err != nil {
		t.Fatal(err)
	}
	return f, peers, leaf
}

func randomData(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestLiveStreamingComplete(t *testing.T) {
	data := randomData(6000, 1)
	_, peers, leaf := buildFabricSession(t, 8, 3, 2, data, 64, 10)
	defer leaf.Close()
	defer closeAll(peers)

	if err := leaf.Start(); err != nil {
		t.Fatal(err)
	}
	if err := leaf.Wait(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	got, ok := leaf.Bytes()
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("reassembled bytes differ")
	}
	// Multiple peers should actually have transmitted.
	active := 0
	for _, p := range peers {
		if p.Sent() > 0 {
			active++
		}
	}
	if active < 3 {
		t.Errorf("only %d peers transmitted", active)
	}
}

func TestLiveStreamingSurvivesPeerCrash(t *testing.T) {
	data := randomData(8000, 2)
	_, peers, leaf := buildFabricSession(t, 8, 4, 2, data, 64, 20)
	defer leaf.Close()
	defer closeAll(peers)

	if err := leaf.Start(); err != nil {
		t.Fatal(err)
	}
	// Crash two transmitting peers shortly after streaming begins.
	time.Sleep(150 * time.Millisecond)
	crashed := 0
	for _, p := range peers {
		if p.Active() && crashed < 2 {
			p.Close()
			crashed++
		}
	}
	if crashed == 0 {
		t.Fatal("no active peer to crash")
	}
	if err := leaf.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	got, ok := leaf.Bytes()
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("reassembled bytes differ after crash")
	}
}

func TestLiveStreamingWithLoss(t *testing.T) {
	data := randomData(5000, 3)
	f, peers, leaf := buildFabricSession(t, 6, 3, 2, data, 64, 30)
	defer leaf.Close()
	defer closeAll(peers)

	// 5% message loss on the fabric (control and data alike).
	f.SetImpairment(transport.Impairment{Seed: 99, Loss: 0.05})

	if err := leaf.Start(); err != nil {
		t.Fatal(err)
	}
	if err := leaf.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	got, ok := leaf.Bytes()
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("reassembled bytes differ under loss")
	}
}

func TestLiveOverTCP(t *testing.T) {
	data := randomData(3000, 4)
	c := content.New("movie", data, 128)
	const n, H, interval = 5, 3, 2

	// First bind all peer listeners to learn their addresses.
	var eps []*tcpLate
	var roster []string
	for i := 0; i < n; i++ {
		late := &tcpLate{}
		ep, err := transport.ListenTCP("127.0.0.1:0", late.dispatch)
		if err != nil {
			t.Fatal(err)
		}
		late.ep = ep
		eps = append(eps, late)
		roster = append(roster, ep.Name())
	}
	var peers []*Peer
	for i, late := range eps {
		p, err := NewPeer(PeerConfig{
			Content:  c,
			Roster:   roster,
			H:        H,
			Interval: interval,
			Delta:    10 * time.Millisecond,
			Seed:     int64(i) + 1,
		}, WithAttach(func(h transport.Handler) (transport.Endpoint, error) {
			late.set(h)
			return late.ep, nil
		}))
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, p)
	}
	defer closeAll(peers)

	leafLate := &tcpLate{}
	lep, err := transport.ListenTCP("127.0.0.1:0", leafLate.dispatch)
	if err != nil {
		t.Fatal(err)
	}
	leafLate.ep = lep
	leaf, err := NewLeaf(LeafConfig{
		Roster:      roster,
		H:           H,
		Interval:    interval,
		Rate:        400,
		ContentSize: len(data),
		PacketSize:  128,
		RepairAfter: 400 * time.Millisecond,
		Seed:        77,
	}, WithAttach(func(h transport.Handler) (transport.Endpoint, error) {
		leafLate.set(h)
		return leafLate.ep, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()

	if err := leaf.Start(); err != nil {
		t.Fatal(err)
	}
	if err := leaf.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	got, ok := leaf.Bytes()
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("TCP reassembly differs")
	}
}

// tcpLate lets the TCP listener start before the peer exists by swapping
// the handler in afterwards.
type tcpLate struct {
	ep *transport.TCPEndpoint
	mu chan struct{}
	h  transport.Handler
}

func (l *tcpLate) set(h transport.Handler) { l.h = h }
func (l *tcpLate) dispatch(m transport.Msg) {
	if l.h != nil {
		l.h(m)
	}
}

func TestLeafConfigValidation(t *testing.T) {
	attach := WithFabric(transport.NewFabric(), "x")
	if _, err := NewLeaf(LeafConfig{Roster: []string{"a"}, H: 2, Interval: 1, Rate: 1}, attach); err == nil {
		t.Error("H > roster accepted")
	}
	if _, err := NewLeaf(LeafConfig{Roster: []string{"a"}, H: 1, Interval: 0, Rate: 1}, attach); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestPeerConfigValidation(t *testing.T) {
	attach := WithFabric(transport.NewFabric(), "x")
	if _, err := NewPeer(PeerConfig{H: 1, Interval: 1}, attach); err == nil {
		t.Error("nil content accepted")
	}
	c := content.New("x", []byte("data"), 2)
	if _, err := NewPeer(PeerConfig{Content: c, H: 0, Interval: 1}, attach); err == nil {
		t.Error("zero H accepted")
	}
}

func closeAll(peers []*Peer) {
	for _, p := range peers {
		p.Close()
	}
}

// Live DCoP: redundant single-round assignment with merge semantics
// still delivers the content byte-for-byte.
func TestLiveDCoPStreamingComplete(t *testing.T) {
	data := randomData(6000, 11)
	f := transport.NewFabric()
	c := content.New("movie", data, 64)
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var peers []*Peer
	for i, name := range names {
		p, err := NewPeer(PeerConfig{
			Content:  c,
			Roster:   names,
			H:        3,
			Interval: 2,
			Delta:    5 * time.Millisecond,
			Protocol: engine.DCoP,
			Seed:     int64(i) + 1,
		}, WithFabric(f, name))
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, p)
	}
	defer closeAll(peers)
	leaf, err := NewLeaf(LeafConfig{
		Roster:      names,
		H:           3,
		Interval:    2,
		Rate:        400,
		ContentSize: len(data),
		PacketSize:  64,
		RepairAfter: 300 * time.Millisecond,
		Seed:        123,
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
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("DCoP live reassembly differs")
	}
}

func TestLivePeerProtocolValidation(t *testing.T) {
	attach := WithFabric(transport.NewFabric(), "x")
	c := content.New("x", []byte("data"), 2)
	if _, err := NewPeer(PeerConfig{Content: c, H: 1, Interval: 1, Protocol: "bogus"}, attach); err == nil {
		t.Error("bogus protocol accepted")
	}
	p, err := NewPeer(PeerConfig{Content: c, H: 1, Interval: 1}, attach)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.cfg.Protocol != engine.TCoP {
		t.Errorf("default protocol = %q", p.cfg.Protocol)
	}
}
