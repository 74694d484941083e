package live

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2pmss/internal/content"
	"p2pmss/internal/engine"
	"p2pmss/internal/metrics"
	"p2pmss/internal/parity"
	"p2pmss/internal/transport"
)

// TestRepairCountedPerBatch: a stall round of k repair batches counts k
// repair requests, however many sends they take. The leaf hears only cp0,
// whose endpoint then closes, so cp0 heads the round's target order and
// every batch aimed at it is redirected to the next target: a failover,
// not another request.
func TestRepairCountedPerBatch(t *testing.T) {
	const batches = 4
	packets := batches*parity.RepairBatch + 1
	f := transport.NewFabric()
	var mu sync.Mutex
	received := 0
	names := []string{"cp0", "cp1", "cp2"}
	eps := make([]transport.Endpoint, len(names))
	for i, name := range names {
		eps[i] = f.Endpoint(name, func(m transport.Msg) {
			if m.Type == typeRepair {
				mu.Lock()
				received++
				mu.Unlock()
			}
		})
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	reg := metrics.New()
	leafNode, err := NewNode(NodeConfig{Store: content.NewStore(), Roster: names, H: 3, Interval: 2,
		Obs: engine.Observability{Metrics: reg}}, WithFabric(f, "leaf"))
	if err != nil {
		t.Fatal(err)
	}
	defer leafNode.Close()
	leaf := open(t, leafNode, SessionConfig{ID: "s", ContentID: "c", Rate: 100,
		ContentSize: packets * 16, PacketSize: 16, RepairAfter: time.Second, Seed: 1})
	c := content.New("c", make([]byte, packets*16), 16)
	if err := eps[0].Send("leaf", transport.Msg{Type: typeData, From: "cp0", Session: string(leaf.ID), Payload: dataBody{Pkt: c.Packet(1)}.AppendWire(nil)}); err != nil {
		t.Fatal(err)
	}
	eps[0].Close()

	// The next round is a whole second after this one.
	deadline := time.Now().Add(20 * time.Second)
	for {
		mu.Lock()
		n := received
		mu.Unlock()
		if n >= batches {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d repair batches arrived", n, batches)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n, _ := counterTotal(reg, "live_repair_requests_total"); n != batches {
		t.Errorf("live_repair_requests_total = %d for %d batches", n, batches)
	}
	// Batches 0 and 3 were aimed at cp0 (round-robin over three targets).
	if n, _ := counterTotal(reg, "live_session_failovers_total", "role", "leaf"); n != 2 {
		t.Errorf("live_session_failovers_total{role=leaf} = %d, want 2", n)
	}
}

// TestLeafTickWaitsForItsSends: a stall round whose repair send blocks —
// a full transport queue — holds the leaf's next check back, so blocked
// sends do not pile up one goroutine per check.
func TestLeafTickWaitsForItsSends(t *testing.T) {
	f := transport.NewFabric()
	names := []string{"cp0", "cp1", "cp2"}
	for _, name := range names {
		ep := f.Endpoint(name, func(transport.Msg) {})
		defer ep.Close()
	}
	release := make(chan struct{})
	var blocked atomic.Int32
	leafNode, err := NewNode(NodeConfig{Store: content.NewStore(), Roster: names, H: 3, Interval: 2},
		WithAttach(func(h transport.Handler) (transport.Endpoint, error) {
			return tapEndpoint{f.Endpoint("leaf", h), func(_ string, m transport.Msg) bool {
				if m.Type == typeRepair {
					blocked.Add(1)
					<-release
				}
				return false
			}}, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer leafNode.Close()
	defer close(release)
	open(t, leafNode, SessionConfig{ContentID: "c", Rate: 100, ContentSize: 64, PacketSize: 16,
		RepairAfter: 20 * time.Millisecond, Seed: 1})
	// Nothing arrives: the first stall round comes after the quiet start
	// (4 windows), then twenty more checks are due.
	time.Sleep(300 * time.Millisecond)
	if n := blocked.Load(); n != 1 {
		t.Errorf("%d repair sends blocked at once, want 1", n)
	}
}

// TestLeafParksNoGoroutine: an open session with re-sends and stall
// checks armed costs its node no goroutine of its own; the only
// goroutines that grow with the session count are the serving peers'
// streamLoops.
func TestLeafParksNoGoroutine(t *testing.T) {
	const sessions = 50
	store, data := chaosStore(1, 64*64, 64, 77)
	nc, err := StartNodes(NodesConfig{
		Nodes: 4, Store: store, H: 3, Interval: 2,
		Delta: time.Millisecond, Seed: 78,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	serving := func() int {
		n := 0
		for _, node := range nc.Nodes {
			n += len(node.Serving())
		}
		return n
	}
	// The fewest over a few samples: a timer callback runs on a goroutine
	// of its own while it fires, but none stays parked.
	settle := func() int {
		least := -1
		for i := 0; i < 20; i++ {
			time.Sleep(20 * time.Millisecond)
			if n := runtime.NumGoroutine() - serving(); least < 0 || n < least {
				least = n
			}
		}
		return least
	}
	base := settle()
	for i := 0; i < sessions; i++ {
		ls, err := nc.Open(0, SessionConfig{
			ID: SessionID(fmt.Sprintf("s%d", i)), ContentID: "c0",
			ContentSize: len(data["c0"]), PacketSize: 64,
			Rate:        0.5, // no session completes during the test
			RepairAfter: time.Second, RequestRetry: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ls.Close()
	}
	if grown := settle() - base; grown > 5 {
		t.Errorf("%d sessions added %d goroutines besides the serving peers' streamLoops", sessions, grown)
	}
	if n := nc.Nodes[0].LeafCount(); n != sessions {
		t.Fatalf("%d of %d sessions still open", n, sessions)
	}
}
