package transport

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"p2pmss/internal/metrics"
)

// TestBoundedQueueDropNewest fills the queue while the pump is wedged in
// a handler and checks that overflow messages are dropped and counted —
// both in QueueDrops and the transport_queue_dropped_total metric.
func TestBoundedQueueDropNewest(t *testing.T) {
	reg := metrics.New()
	f := NewBoundedQueuedFabric(2, QueueDropNewest)
	f.Instrument(reg)

	gate := make(chan struct{})
	var delivered atomic.Int64
	f.Endpoint("sink", func(Msg) {
		delivered.Add(1)
		<-gate
	})
	src := f.Endpoint("src", func(Msg) {})

	// Wedge the pump inside the first delivery so queue occupancy is
	// deterministic, then fill the queue to capacity and overflow it.
	if err := src.Send("sink", Msg{Type: "m0"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for delivered.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if delivered.Load() == 0 {
		t.Fatal("pump never delivered m0")
	}
	for i := 1; i < 5; i++ { // m1, m2 queue; m3, m4 overflow
		if err := src.Send("sink", Msg{Type: fmt.Sprintf("m%d", i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if got := f.QueueDrops(); got != 2 {
		t.Errorf("QueueDrops = %d, want 2", got)
	}
	close(gate)
	f.Wait()
	if got := delivered.Load(); got != 3 {
		t.Errorf("delivered = %d, want 3 (2 dropped)", got)
	}
	snap := reg.Snapshot()
	found := false
	for _, c := range snap.Counters {
		if c.Name == "transport_queue_dropped_total" {
			found = true
			if c.Value != 2 {
				t.Errorf("transport_queue_dropped_total = %d, want 2", c.Value)
			}
		}
	}
	if !found {
		t.Error("transport_queue_dropped_total not in snapshot")
	}
}

// TestFabricCountersBalance: every message the fabric accepts, and every
// copy impairment adds, is delivered or counted as lost, whatever loses
// it — an impairment verdict, a full QueueDropNewest queue, or an
// endpoint that closed while its messages were queued or held back for
// reordering. After Flush and Wait nothing is in flight, so
// sent + duplicated == received + dropped + queue_dropped.
func TestFabricCountersBalance(t *testing.T) {
	reg := metrics.New()
	f := NewBoundedQueuedFabric(8, QueueDropNewest)
	f.Instrument(reg)
	imp := f.SetImpairment(Impairment{Seed: 7, Loss: 0.1, Duplicate: 0.2, Reorder: 0.2, ReorderWindow: 3})
	// Every delivery waits on gate, so the pump wedges in the first one
	// and the queue overflows behind it.
	gate := make(chan struct{})
	f.Endpoint("a", func(Msg) { <-gate })
	f.Endpoint("b", func(Msg) { <-gate })
	c := f.Endpoint("c", func(Msg) { <-gate })
	src := f.Endpoint("src", func(Msg) {})
	dsts := []string{"a", "b", "c"}
	for i := 0; i < 300; i++ {
		if i == 150 {
			c.Close() // its queued and held messages are lost in flight
		}
		to := dsts[i%len(dsts)]
		err := src.Send(to, Msg{Type: "x", Payload: []byte{byte(i)}})
		if (err != nil) != (i >= 150 && to == "c") {
			t.Fatalf("send %d to %s: %v", i, to, err)
		}
	}
	close(gate)
	imp.Flush()
	f.Wait()

	// Every series here is labelled transport="mem"; the impairment's
	// are told apart by verdict.
	n := map[string]int64{}
	for _, cv := range reg.Snapshot().Counters {
		key := cv.Name
		for _, l := range cv.Labels {
			if l.Key == "verdict" {
				key += "/" + l.Value
			}
		}
		n[key] += cv.Value
	}
	sent, dup := n["transport_messages_sent_total"], n["transport_impaired_total/dup"]
	received, dropped := n["transport_messages_received_total"], n["transport_messages_dropped_total"]
	queueDropped := n["transport_queue_dropped_total"]
	if sent+dup != received+dropped+queueDropped {
		t.Errorf("sent %d + duplicated %d != received %d + dropped %d + queue_dropped %d",
			sent, dup, received, dropped, queueDropped)
	}
	lost := n["transport_impaired_total/drop"] + n["transport_impaired_total/burst"]
	if sent != 250 || dup == 0 || lost == 0 || queueDropped == 0 || received == 0 {
		t.Errorf("a term went unexercised: sent %d, duplicated %d, impairment losses %d, queue_dropped %d, received %d",
			sent, dup, lost, queueDropped, received)
	}
	if dropped <= lost {
		t.Errorf("dropped %d counts no in-flight loss beyond impairment's %d", dropped, lost)
	}
}

// TestBoundedQueueBlockBackpressure checks that a sender hitting a full
// queue blocks until the pump frees a slot, and that nothing is lost.
func TestBoundedQueueBlockBackpressure(t *testing.T) {
	f := NewBoundedQueuedFabric(1, QueueBlock)
	gate := make(chan struct{})
	var delivered atomic.Int64
	f.Endpoint("sink", func(Msg) {
		delivered.Add(1)
		<-gate
	})
	src := f.Endpoint("src", func(Msg) {})

	// m0 wedges the pump, m1 occupies the single queue slot.
	src.Send("sink", Msg{Type: "m0"})
	src.Send("sink", Msg{Type: "m1"})

	blocked := make(chan struct{})
	sent := make(chan struct{})
	go func() {
		close(blocked)
		src.Send("sink", Msg{Type: "m2"}) // must block: queue full
		close(sent)
	}()
	<-blocked
	select {
	case <-sent:
		// m2 may legitimately squeeze in if the pump dequeued m1 between
		// our sends; only fail if it returned while the queue was full.
		if delivered.Load() == 0 {
			t.Fatal("send returned with the queue still full")
		}
	case <-time.After(50 * time.Millisecond):
		// Still blocked, as expected under backpressure.
	}
	close(gate) // release the pump; the blocked sender must now finish
	select {
	case <-sent:
	case <-time.After(2 * time.Second):
		t.Fatal("sender still blocked after the pump drained")
	}
	f.Wait()
	if got := delivered.Load(); got != 3 {
		t.Errorf("delivered = %d, want 3 (QueueBlock must not lose messages)", got)
	}
	if got := f.QueueDrops(); got != 0 {
		t.Errorf("QueueDrops = %d, want 0 under QueueBlock", got)
	}
}

// TestBoundedQueuePumpExempt checks the deadlock guard: a handler
// (running on the pump goroutine) sending more messages than the queue
// capacity must not block, or the drain would never progress.
func TestBoundedQueuePumpExempt(t *testing.T) {
	f := NewBoundedQueuedFabric(1, QueueBlock)
	var fanout Endpoint
	var received atomic.Int64
	f.Endpoint("sink", func(Msg) { received.Add(1) })
	fanout = f.Endpoint("fan", func(Msg) {
		// 3 sends from inside a handler against capacity 1: only the
		// pump-exemption keeps this from deadlocking.
		for i := 0; i < 3; i++ {
			fanout.Send("sink", Msg{Type: fmt.Sprintf("f%d", i)})
		}
	})
	src := f.Endpoint("src", func(Msg) {})

	done := make(chan struct{})
	go func() {
		src.Send("fan", Msg{Type: "go"})
		f.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("bounded fabric deadlocked on handler fan-out")
	}
	if got := received.Load(); got != 3 {
		t.Errorf("received = %d, want 3", got)
	}
}

// TestBoundedQueueUnboundedWhenCapZero pins that capacity <= 0 means
// unbounded: a large burst is fully delivered with no drops.
func TestBoundedQueueUnboundedWhenCapZero(t *testing.T) {
	f := NewBoundedQueuedFabric(0, QueueDropNewest)
	var received atomic.Int64
	f.Endpoint("sink", func(Msg) { received.Add(1) })
	src := f.Endpoint("src", func(Msg) {})
	for i := 0; i < 500; i++ {
		src.Send("sink", Msg{Type: "b"})
	}
	f.Wait()
	if got := received.Load(); got != 500 {
		t.Errorf("received = %d, want 500", got)
	}
	if f.QueueDrops() != 0 {
		t.Errorf("drops on an unbounded queue: %d", f.QueueDrops())
	}
}

// TestQueuedFabricPumpSurvivesIdleGaps pins the pump's lifetime: one
// goroutine serves every burst while any endpoint is open (a paced
// stream empties the queue after each message, and a goroutine per
// message was a quarter of the live_sessions CPU profile), it goes away
// with the last endpoint, and a later send starts a fresh one.
func TestQueuedFabricPumpSurvivesIdleGaps(t *testing.T) {
	f := NewBoundedQueuedFabric(8, QueueBlock)
	ids := make(chan uint64, 1)
	sink := f.Endpoint("sink", func(Msg) { ids <- goid() })
	src := f.Endpoint("src", func(Msg) {})
	deliver := func() uint64 {
		t.Helper()
		if err := src.Send("sink", Msg{Type: "m"}); err != nil {
			t.Fatal(err)
		}
		f.Wait() // the queue is empty again: the gap between two bursts
		return <-ids
	}
	pumping := func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.pumping
	}
	first := deliver()
	for i := 0; i < 3; i++ {
		if id := deliver(); id != first {
			t.Fatalf("burst %d ran on goroutine %d, the first on %d: the pump was respawned", i, id, first)
		}
	}
	if !pumping() {
		t.Fatal("pump exited while endpoints were open")
	}
	src.Close()
	if !pumping() {
		t.Fatal("pump exited with an endpoint still open")
	}
	sink.Close()
	waitFor(t, "the pump to exit with the last endpoint", func() bool { return !pumping() })

	sink = f.Endpoint("sink", func(Msg) { ids <- goid() })
	src = f.Endpoint("src", func(Msg) {})
	if id := deliver(); id == first {
		t.Fatalf("a fabric reopened after its pump exited delivered on the old goroutine %d", id)
	}
	src.Close()
	sink.Close()
}

// The fabric's ring delivers in FIFO order across wrap-around and
// growth, and reuses its storage once it has grown to the window.
func TestFabricRingKeepsFIFOOrder(t *testing.T) {
	var q ring
	var model []int
	next, grown := 0, 0
	for step := 0; step < 5000; step++ {
		if step%7 < 4 || len(model) == 0 { // net growth, then drains
			if q.n == len(q.buf) {
				grown++
			}
			q.push(queuedMsg{to: fmt.Sprint(next)})
			model = append(model, next)
			next++
			continue
		}
		got := q.pop().to
		if want := fmt.Sprint(model[0]); got != want {
			t.Fatalf("step %d: popped %s, want %s", step, got, want)
		}
		model = model[1:]
	}
	for len(model) > 0 {
		if got, want := q.pop().to, fmt.Sprint(model[0]); got != want {
			t.Fatalf("drain: popped %s, want %s", got, want)
		}
		model = model[1:]
	}
	if q.n != 0 || grown > 8 {
		t.Fatalf("n = %d after draining, grew %d times", q.n, grown)
	}
}
