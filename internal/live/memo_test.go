package live

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"p2pmss/internal/content"
	"p2pmss/internal/engine"
	"p2pmss/internal/metrics"
	"p2pmss/internal/transport"
)

// TestPayloadMemoLRU exercises the memo in isolation: recently-used
// entries survive, the oldest entry is evicted at capacity, and every
// eviction is counted.
func TestPayloadMemoLRU(t *testing.T) {
	reg := metrics.New()
	evict := reg.Counter("test_evictions")
	m := payloadMemo{cap: 3, evictions: evict}

	for i := 0; i < 3; i++ {
		m.put(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	if m.len() != 3 {
		t.Fatalf("len = %d, want 3", m.len())
	}
	// Touch k0 so k1 becomes the LRU entry.
	if b, ok := m.get("k0"); !ok || !bytes.Equal(b, []byte{0}) {
		t.Fatalf("get k0 = %v, %v", b, ok)
	}
	m.put("k3", []byte{3})
	if m.len() != 3 {
		t.Fatalf("len after eviction = %d, want 3", m.len())
	}
	if _, ok := m.get("k1"); ok {
		t.Error("k1 survived eviction despite being least recently used")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := m.get(k); !ok {
			t.Errorf("%s evicted, want kept", k)
		}
	}
	if got := evict.Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	// Refreshing an existing key must not evict or grow.
	m.put("k2", []byte{42})
	if m.len() != 3 || evict.Value() != 1 {
		t.Errorf("after refresh: len = %d evictions = %d, want 3, 1", m.len(), evict.Value())
	}
	if b, _ := m.get("k2"); !bytes.Equal(b, []byte{42}) {
		t.Errorf("refresh did not replace value: %v", b)
	}
}

// TestPayloadMemoBoundedDuringStreaming streams a content whose packet
// count far exceeds a tiny memo capacity and checks that (a) delivery
// still completes — the memo is a cache, not correctness state — and
// (b) no peer's memo ever ends above its bound, with evictions counted
// in live_payload_memo_evictions_total.
func TestPayloadMemoBoundedDuringStreaming(t *testing.T) {
	const memoCap = 8
	data := randomData(6000, 7) // ~94 packets of 64 bytes
	reg := metrics.New()
	f := transport.NewFabric()
	c := content.New("movie", data, 64)
	names := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	peers := make([]*Peer, len(names))
	for i, name := range names {
		p, err := NewPeer(PeerConfig{
			Content:        c,
			Roster:         names,
			H:              3,
			Interval:       2,
			Delta:          5 * time.Millisecond,
			Seed:           int64(31 + i),
			Obs:            engine.Observability{Metrics: reg},
			PayloadMemoCap: memoCap,
		}, WithFabric(f, name))
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
	}
	leaf, err := NewLeaf(LeafConfig{
		Roster:      names,
		H:           3,
		Interval:    2,
		Rate:        400,
		ContentSize: len(data),
		PacketSize:  64,
		RepairAfter: 300 * time.Millisecond,
		Seed:        1030,
	}, WithFabric(f, "leaf"))
	if err != nil {
		t.Fatal(err)
	}
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
		t.Fatal("reassembled bytes differ under a bounded memo")
	}

	evictions := int64(0)
	for _, p := range peers {
		p.mu.Lock()
		n := p.payloads.len()
		p.mu.Unlock()
		if n > memoCap {
			t.Errorf("peer %s memo holds %d entries, cap %d", p.Addr(), n, memoCap)
		}
		evictions += p.met.memoEvictions.Value()
	}
	if evictions == 0 {
		t.Error("no evictions counted despite packets >> memo capacity")
	}
}
