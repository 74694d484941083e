package simnet

import (
	"fmt"
	"testing"

	"p2pmss/internal/des"
)

type sink struct {
	got []Message
	at  []float64
	eng *des.Engine
}

func (s *sink) Receive(from NodeID, m Message) {
	s.got = append(s.got, m)
	s.at = append(s.at, s.eng.Now())
}

func TestDeliveryWithLatency(t *testing.T) {
	eng := des.New(1)
	nw := New(eng)
	nw.SetDefaultLink(LinkParams{Latency: 0.5})
	s := &sink{eng: eng}
	nw.Attach(1, s)
	nw.AttachFunc(0, func(NodeID, Message) {})
	nw.Send(0, 1, "hello")
	eng.Run()
	if len(s.got) != 1 || s.got[0] != "hello" {
		t.Fatalf("got = %v", s.got)
	}
	if s.at[0] != 0.5 {
		t.Errorf("delivered at %v, want 0.5", s.at[0])
	}
	st := nw.Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLinkOverride(t *testing.T) {
	eng := des.New(1)
	nw := New(eng)
	nw.SetDefaultLink(LinkParams{Latency: 1})
	nw.SetLink(0, 1, LinkParams{Latency: 3})
	s := &sink{eng: eng}
	nw.Attach(1, s)
	nw.Send(0, 1, "x")
	eng.Run()
	if s.at[0] != 3 {
		t.Errorf("delivered at %v, want 3", s.at[0])
	}
	if got := nw.Link(1, 0).Latency; got != 1 {
		t.Errorf("reverse link latency = %v, want default 1", got)
	}
}

func TestLoss(t *testing.T) {
	eng := des.New(7)
	nw := New(eng)
	nw.SetDefaultLink(LinkParams{LossProb: 0.5})
	s := &sink{eng: eng}
	nw.Attach(1, s)
	const N = 2000
	for i := 0; i < N; i++ {
		nw.Send(0, 1, i)
	}
	eng.Run()
	st := nw.Stats()
	if st.Sent != N || st.Delivered+st.Dropped != N {
		t.Fatalf("stats = %+v", st)
	}
	frac := float64(st.Dropped) / N
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("loss fraction = %v, want ≈0.5", frac)
	}
}

func TestBurstLossHook(t *testing.T) {
	eng := des.New(1)
	nw := New(eng)
	drop := true
	nw.BurstLoss = func(from, to NodeID) bool { return drop }
	s := &sink{eng: eng}
	nw.Attach(1, s)
	nw.Send(0, 1, "a")
	drop = false
	nw.Send(0, 1, "b")
	eng.Run()
	if len(s.got) != 1 || s.got[0] != "b" {
		t.Errorf("got = %v", s.got)
	}
}

func TestCrash(t *testing.T) {
	eng := des.New(1)
	nw := New(eng)
	s := &sink{eng: eng}
	nw.Attach(1, s)
	nw.Attach(2, s)
	nw.Crash(1)
	if !nw.Crashed(1) {
		t.Error("Crashed(1) = false")
	}
	nw.Send(0, 1, "to crashed")   // discarded at delivery
	nw.Send(1, 2, "from crashed") // ignored at send
	eng.Run()
	if len(s.got) != 0 {
		t.Errorf("got = %v", s.got)
	}
	st := nw.Stats()
	if st.ToCrashed != 1 {
		t.Errorf("ToCrashed = %d", st.ToCrashed)
	}
	nw.Recover(1)
	nw.Send(0, 1, "after recover")
	eng.Run()
	if len(s.got) != 1 {
		t.Errorf("after recover got = %v", s.got)
	}
}

// A message in flight when the destination crashes is lost — crash takes
// effect at delivery time.
func TestCrashInFlight(t *testing.T) {
	eng := des.New(1)
	nw := New(eng)
	nw.SetDefaultLink(LinkParams{Latency: 2})
	s := &sink{eng: eng}
	nw.Attach(1, s)
	nw.Send(0, 1, "x")
	eng.After(1, func() { nw.Crash(1) })
	eng.Run()
	if len(s.got) != 0 {
		t.Errorf("got = %v", s.got)
	}
}

func TestJitterBounds(t *testing.T) {
	eng := des.New(3)
	nw := New(eng)
	nw.SetDefaultLink(LinkParams{Latency: 1, Jitter: 0.5})
	s := &sink{eng: eng}
	nw.Attach(1, s)
	for i := 0; i < 100; i++ {
		nw.Send(0, 1, i)
	}
	eng.Run()
	for _, at := range s.at {
		if at < 1 || at >= 1.5 {
			t.Fatalf("delivery at %v outside [1,1.5)", at)
		}
	}
}

func TestBroadcast(t *testing.T) {
	eng := des.New(1)
	nw := New(eng)
	s1, s2, s3 := &sink{eng: eng}, &sink{eng: eng}, &sink{eng: eng}
	nw.Attach(1, s1)
	nw.Attach(2, s2)
	nw.Attach(3, s3)
	nw.Broadcast(1, "hi")
	eng.Run()
	if len(s1.got) != 0 {
		t.Error("broadcast delivered to sender")
	}
	if len(s2.got) != 1 || len(s3.got) != 1 {
		t.Errorf("broadcast missed: %v %v", s2.got, s3.got)
	}
}

func TestUnattachedPanics(t *testing.T) {
	eng := des.New(1)
	nw := New(eng)
	nw.Send(0, 9, "x")
	defer func() {
		if recover() == nil {
			t.Error("delivery to unattached node did not panic")
		}
	}()
	eng.Run()
}

// Finite bandwidth: messages serialize FIFO at 1/bw spacing.
func TestBandwidthSerialization(t *testing.T) {
	eng := des.New(1)
	nw := New(eng)
	nw.SetDefaultLink(LinkParams{Latency: 1, Bandwidth: 2}) // 0.5/unit per msg
	s := &sink{eng: eng}
	nw.Attach(1, s)
	for i := 0; i < 4; i++ {
		nw.Send(0, 1, i)
	}
	eng.Run()
	want := []float64{1.5, 2.0, 2.5, 3.0}
	if len(s.at) != 4 {
		t.Fatalf("delivered %d", len(s.at))
	}
	for i, at := range s.at {
		if diff := at - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("msg %d at %v, want %v", i, at, want[i])
		}
	}
}

// Bandwidth limits are per directed link: reverse traffic is unaffected,
// and an idle link does not accumulate credit debt.
func TestBandwidthPerLink(t *testing.T) {
	eng := des.New(1)
	nw := New(eng)
	nw.SetDefaultLink(LinkParams{Bandwidth: 1})
	a, b := &sink{eng: eng}, &sink{eng: eng}
	nw.Attach(0, a)
	nw.Attach(1, b)
	nw.Send(0, 1, "x")
	nw.Send(1, 0, "y")
	eng.Run()
	if len(a.at) != 1 || len(b.at) != 1 {
		t.Fatal("both directions should deliver")
	}
	if a.at[0] != 1 || b.at[0] != 1 {
		t.Errorf("deliveries at %v/%v, want 1/1", a.at[0], b.at[0])
	}
	// After idling, the next message only waits its own slot.
	eng.RunUntil(10)
	nw.Send(0, 1, "z")
	eng.Run()
	if got := b.at[1]; got != 11 {
		t.Errorf("post-idle delivery at %v, want 11", got)
	}
}

// TestBroadcastDeterministic broadcasts over lossy, jittery links on two
// engines with one seed: the loss and jitter draws follow the send
// order, so the delivery logs agree only if Broadcast's order is fixed.
func TestBroadcastDeterministic(t *testing.T) {
	run := func() []string {
		eng := des.New(3)
		nw := New(eng)
		nw.SetDefaultLink(LinkParams{Latency: 1, Jitter: 0.5, LossProb: 0.3})
		var log []string
		for i := 0; i < 16; i++ {
			id := NodeID(i)
			nw.AttachFunc(id, func(from NodeID, m Message) {
				log = append(log, fmt.Sprintf("%d<-%d %v at %.9f", id, from, m, eng.Now()))
			})
		}
		nw.Broadcast(0, "a")
		nw.Broadcast(7, "b")
		eng.Run()
		return log
	}
	a, b := run(), run()
	if len(a) == 0 || fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed, different deliveries:\n%v\n%v", a, b)
	}
}

// TestSendAllocs pins the pooled delivery: once warmed, a send and its
// delivery allocate nothing.
func TestSendAllocs(t *testing.T) {
	eng := des.New(1)
	nw := New(eng)
	nw.SetDefaultLink(LinkParams{Latency: 1, Jitter: 0.5})
	got := 0
	nw.AttachFunc(0, func(NodeID, Message) {})
	nw.AttachFunc(1, func(NodeID, Message) { got++ })
	var msg Message = "x"
	send := func() {
		for i := 0; i < 8; i++ {
			nw.Send(0, 1, msg)
		}
		eng.Run()
	}
	send()
	if n := testing.AllocsPerRun(100, send); n != 0 {
		t.Errorf("warm send + delivery: %v allocs, want 0", n)
	}
	if got != 8*102 {
		t.Errorf("delivered %d, want %d", got, 8*102)
	}
}
