package engine_test

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"p2pmss/internal/content"
	"p2pmss/internal/des"
	"p2pmss/internal/engine"
	"p2pmss/internal/metrics"
	"p2pmss/internal/parity"
	"p2pmss/internal/seq"
	"p2pmss/internal/span"
)

// recCarrier records a leaf's sends and fails those to the peers in down.
type recCarrier struct {
	down     map[engine.PeerID]bool
	requests []request
	repairs  []engine.PeerID // the target of every repair send, in order
}

type request struct {
	to       engine.PeerID
	slot     int
	selected []engine.PeerID
}

func (c *recCarrier) Request(to engine.PeerID, slot int, selected []engine.PeerID, _ span.Context) error {
	c.requests = append(c.requests, request{to, slot, selected})
	if c.down[to] {
		return errors.New("down")
	}
	return nil
}

func (c *recCarrier) Repair(to engine.PeerID, _ []int64, _ string) error {
	c.repairs = append(c.repairs, to)
	if c.down[to] {
		return errors.New("down")
	}
	return nil
}

// testLeaf is a leaf over n peers selecting 3, assembling l packets.
func testLeaf(n, l int, cfg engine.LeafConfig) (*engine.Leaf, *content.Assembler) {
	cfg.N, cfg.H, cfg.Interval = n, 3, 2
	asm := content.NewAssembler(l, 1)
	return engine.NewLeaf(cfg, des.NewRand(7), asm, 0), asm
}

// A slot whose send fails goes to the next spare; the requests already
// sent keep the selection they were sent with, and Start's error comes
// only once the spares run out.
func TestLeafFailsSlotOver(t *testing.T) {
	failovers := metrics.New().Counter("failovers")
	l, _ := testLeaf(6, 10, engine.LeafConfig{Metrics: engine.LeafMetrics{Failovers: failovers}})
	want, spares := engine.SelectInitial(des.NewRand(7), 6, 3)
	c := &recCarrier{down: map[engine.PeerID]bool{want[1]: true}}
	d := l.Start(0)
	if err := d.Send(c); err != nil {
		t.Fatal(err)
	}
	l.Started(d, 0)
	if len(c.requests) != 4 || failovers.Value() != 1 {
		t.Fatalf("%d requests, %d failovers; want 4, 1", len(c.requests), failovers.Value())
	}
	if !slices.Equal(c.requests[0].selected, want) {
		t.Errorf("slot 0 sent with %v, want %v", c.requests[0].selected, want)
	}
	if q := c.requests[2]; q.to != spares[0] || q.slot != 1 || q.selected[1] != spares[0] {
		t.Errorf("failover request %+v, want slot 1 to %d", q, spares[0])
	}

	all := map[engine.PeerID]bool{}
	for id := engine.PeerID(0); id < 6; id++ {
		all[id] = true
	}
	l, _ = testLeaf(6, 10, engine.LeafConfig{})
	if err := l.Start(0).Send(&recCarrier{down: all}); err == nil {
		t.Error("a roster with every peer down started")
	}
}

// Re-sends go to the selected peers not yet heard from, at most five
// waves, and stop once every slot is streaming.
func TestLeafResendsToQuietSlots(t *testing.T) {
	l, _ := testLeaf(6, 10, engine.LeafConfig{Retry: 1})
	c := &recCarrier{}
	d := l.Start(0)
	d.Send(c)
	l.Started(d, 0)
	sel := c.requests[0].selected
	pkt := seq.NewData(1)
	l.Arrive(0.5, sel[0], &pkt)
	waves := 0
	for now := 1.0; ; now++ {
		at, ok := l.Deadline()
		if !ok {
			break
		}
		if at != now {
			t.Fatalf("deadline %v, want %v", at, now)
		}
		c.requests = nil
		l.Tick(now).Send(c)
		for _, q := range c.requests {
			if q.to == sel[0] {
				t.Fatalf("wave %d re-sent to a streaming peer", waves)
			}
		}
		if len(c.requests) != 2 {
			t.Fatalf("wave %d sent %d requests, want 2", waves, len(c.requests))
		}
		waves++
	}
	if waves != 5 {
		t.Errorf("%d re-send waves, want 5", waves)
	}
}

// A repair batch whose target cannot be reached goes to the next target,
// counted as a failover; every batch counts one request.
func TestLeafRepairRotatesPastFailedTarget(t *testing.T) {
	reg := metrics.New()
	m := engine.LeafMetrics{StallRepairs: reg.Counter("stall"), Failovers: reg.Counter("failovers")}
	const l = 3*parity.RepairBatch + 1
	leaf, _ := testLeaf(3, l, engine.LeafConfig{Window: 1, Metrics: m})
	d := leaf.Start(0)
	d.Send(&recCarrier{})
	leaf.Started(d, 0)
	pkt := seq.NewData(1)
	leaf.Arrive(0.5, 2, &pkt) // peer 2 heads the target order
	c := &recCarrier{down: map[engine.PeerID]bool{2: true}}
	for now := 1.0; len(c.repairs) == 0; now++ {
		leaf.Tick(now).Send(c)
	}
	if m.StallRepairs.Value() != 3 {
		t.Errorf("%d repair requests counted for 3 batches", m.StallRepairs.Value())
	}
	// Round-robin over [2 1 0]: batches 0 and 2 are aimed at peer 2.
	if want := []engine.PeerID{2, 1, 0, 2, 1}; !slices.Equal(c.repairs, want) || m.Failovers.Value() != 2 {
		t.Errorf("repair sends %v with %d failovers, want %v with 2", c.repairs, m.Failovers.Value(), want)
	}
}

// Stall checks end after 20 windows in a row without a data gain, so a
// session nobody can complete stops asking.
func TestLeafStallChecksGiveUp(t *testing.T) {
	leaf, _ := testLeaf(3, 10, engine.LeafConfig{Window: 1})
	d := leaf.Start(0)
	d.Send(&recCarrier{})
	leaf.Started(d, 0)
	var last float64
	for at, ok := leaf.Deadline(); ok; at, ok = leaf.Deadline() {
		leaf.Tick(at).Send(&recCarrier{})
		last = at
	}
	if last != 20 {
		t.Errorf("last stall check at %v windows, want 20", last)
	}
}

// BenchmarkLeafArrive is BenchmarkAssemblerAdd's stream — a lossless
// h = 2 session of 8192 1-KiB packets from three senders — fed through a
// leaf with repair armed: assembly plus the gap rule, per arrival.
func BenchmarkLeafArrive(b *testing.B) {
	data := make([]byte, 8<<20)
	rand.New(rand.NewSource(1)).Read(data)
	c := content.New("bench", data, 1024)
	enhanced := parity.Enhance(c.Sequence(), 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		asm := content.NewAssembler(c.Size(), c.PacketSize())
		l := engine.NewLeaf(engine.LeafConfig{N: 3, H: 3, Interval: 2, Window: 1}, des.NewRand(1), asm, 0)
		l.Started(l.Start(0), 0)
		for j := range enhanced {
			if _, d := l.Arrive(float64(j)/1e4, engine.PeerID(j%3), &enhanced[j]); d != nil {
				b.Fatal("a lossless stream asked for repair")
			}
		}
		if !asm.Complete() {
			b.Fatal("incomplete")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(enhanced)), "ns/pkt")
}
