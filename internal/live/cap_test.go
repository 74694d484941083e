package live

import (
	"bytes"
	"testing"
	"time"

	"p2pmss/internal/content"
	"p2pmss/internal/engine"
	"p2pmss/internal/transport"
)

// Regression for the §3.3 lifetime fanout cap in the live runtime: under
// DCoP with a small H, redundant selection makes a merged peer re-select
// on every merge, and before the shared engine the live layer would take
// fresh children each time, unbounded. Every peer must end with at most
// H children over its whole lifetime — and delivery must still complete.
func TestLiveDCoPChildrenCapSmallH(t *testing.T) {
	data := randomData(3000, 17)
	const capH = 2
	f := transport.NewFabric()
	c := content.New("capped", data, 64)
	names := []string{"a", "b", "c", "d", "e", "f", "g"}
	var peers []*Peer
	for i, name := range names {
		p, err := NewPeer(PeerConfig{
			Content:  c,
			Roster:   names,
			H:        capH,
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
		H:           capH,
		Interval:    2,
		Rate:        400,
		ContentSize: len(data),
		PacketSize:  64,
		RepairAfter: 300 * time.Millisecond,
		Seed:        99,
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
		t.Fatal("capped DCoP live reassembly differs")
	}
	for i, p := range peers {
		if n := len(p.Outcome().Children); n > capH {
			t.Errorf("peer %s took %d children over its lifetime, cap is %d", names[i], n, capH)
		}
	}
}
