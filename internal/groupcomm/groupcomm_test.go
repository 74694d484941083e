package groupcomm

import (
	"math/rand"
	"slices"
	"testing"
)

func TestCausalDeliveryInOrder(t *testing.T) {
	var got []int
	p1 := NewProcess(1, 3, func(m Message) { got = append(got, m.Body.(int)) })
	p0 := NewProcess(0, 3, nil)

	m1 := p0.Send(10)
	m2 := p0.Send(20)
	if m1.From != p0.ID() || p1.ID() != 1 {
		t.Fatalf("message from %d, process ids %d/%d", m1.From, p0.ID(), p1.ID())
	}
	// Deliver out of order: m2 must wait for m1.
	if err := p1.Receive(m2); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("m2 delivered before m1: %v", got)
	}
	if p1.Pending() != 1 {
		t.Errorf("pending = %d", p1.Pending())
	}
	if err := p1.Receive(m1); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Errorf("delivery order = %v", got)
	}
	if p1.Pending() != 0 {
		t.Errorf("pending = %d after drain", p1.Pending())
	}
}

func TestCausalChainAcrossProcesses(t *testing.T) {
	// p0 sends a; p1 delivers a then sends b (b causally after a);
	// p2 receives b first and must delay it until a arrives.
	var p2got []string
	p0 := NewProcess(0, 3, nil)
	p1 := NewProcess(1, 3, nil)
	p2 := NewProcess(2, 3, func(m Message) { p2got = append(p2got, m.Body.(string)) })

	a := p0.Send("a")
	p1.Receive(a)
	b := p1.Send("b")

	p2.Receive(b)
	if len(p2got) != 0 {
		t.Fatalf("b delivered before its cause: %v", p2got)
	}
	p2.Receive(a)
	if len(p2got) != 2 || p2got[0] != "a" || p2got[1] != "b" {
		t.Errorf("order = %v", p2got)
	}
}

func TestDuplicatesIgnored(t *testing.T) {
	n := 0
	p1 := NewProcess(1, 2, func(Message) { n++ })
	p0 := NewProcess(0, 2, nil)
	m := p0.Send(1)
	p1.Receive(m)
	p1.Receive(m)
	p1.Receive(m)
	if n != 1 {
		t.Errorf("delivered %d times", n)
	}
	if p1.Delivered() != 1 {
		t.Errorf("Delivered() = %d", p1.Delivered())
	}
}

func TestOwnEchoIgnored(t *testing.T) {
	n := 0
	p0 := NewProcess(0, 2, func(Message) { n++ })
	m := p0.Send(1)
	p0.Receive(m)
	if n != 0 {
		t.Error("own echo delivered")
	}
}

func TestMalformed(t *testing.T) {
	p := NewProcess(0, 2, nil)
	if err := p.Receive(Message{From: 5, Vector: []int{0, 0}}); err == nil {
		t.Error("bad origin accepted")
	}
	if err := p.Receive(Message{From: 1, Vector: []int{0}}); err == nil {
		t.Error("short vector accepted")
	}
}

func TestNewProcessPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad id did not panic")
		}
	}()
	NewProcess(5, 3, nil)
}

// Property: under arbitrary per-receiver reordering, every process
// delivers every message exactly once and in an order consistent with
// causality (a message from j is delivered after all messages it
// causally depends on).
func TestCausalOrderPropertyUnderShuffling(t *testing.T) {
	const n = 4
	const perProc = 6
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type rec struct {
			m Message
		}
		procs := make([]*Process, n)
		logs := make([][]Message, n)
		for i := 0; i < n; i++ {
			i := i
			procs[i] = NewProcess(i, n, func(m Message) { logs[i] = append(logs[i], m) })
		}
		// Generate interleaved sends; each process occasionally receives
		// some pending traffic first (building causal chains).
		var wire []rec
		queue := make([][]Message, n) // per receiver
		for round := 0; round < perProc; round++ {
			for i := 0; i < n; i++ {
				// Receive a random prefix of the queued traffic.
				rng.Shuffle(len(queue[i]), func(a, b int) { queue[i][a], queue[i][b] = queue[i][b], queue[i][a] })
				k := rng.Intn(len(queue[i]) + 1)
				for _, m := range queue[i][:k] {
					procs[i].Receive(m)
				}
				queue[i] = queue[i][k:]
				m := procs[i].Send([2]int{i, round})
				wire = append(wire, rec{m})
				for j := 0; j < n; j++ {
					if j != i {
						queue[j] = append(queue[j], m)
					}
				}
			}
		}
		// Flush the remainder in random order.
		for i := 0; i < n; i++ {
			rng.Shuffle(len(queue[i]), func(a, b int) { queue[i][a], queue[i][b] = queue[i][b], queue[i][a] })
			for _, m := range queue[i] {
				procs[i].Receive(m)
			}
		}
		for i := 0; i < n; i++ {
			want := (n - 1) * perProc
			if len(logs[i]) != want {
				t.Fatalf("seed %d: proc %d delivered %d of %d", seed, i, len(logs[i]), want)
			}
			// Causal consistency: for each delivered message, all its
			// causal predecessors (per vector) must already be delivered.
			seen := make([]int, n)
			for _, m := range logs[i] {
				for k := 0; k < n; k++ {
					if k == i {
						continue
					}
					limit := m.Vector[k]
					if k == m.From && seen[k]+1 != limit {
						t.Fatalf("seed %d: proc %d delivered %v out of FIFO order", seed, i, m)
					}
					if k != m.From && seen[k] < limit {
						t.Fatalf("seed %d: proc %d delivered %v before causal predecessor from %d", seed, i, m, k)
					}
				}
				seen[m.From] = m.Vector[m.From]
			}
		}
		_ = wire
	}
}

func TestHappensBeforeAndConcurrent(t *testing.T) {
	a := []int{1, 0, 0}
	b := []int{1, 1, 0}
	c := []int{0, 2, 0}
	if !happensBefore(a, b) {
		t.Error("a < b expected")
	}
	if happensBefore(b, a) {
		t.Error("b < a unexpected")
	}
	if !concurrent(a, c) {
		t.Error("a || c expected")
	}
	if concurrent(a, a) {
		t.Error("a || a unexpected")
	}
	if happensBefore([]int{1}, []int{1, 2}) {
		t.Error("mismatched lengths compared")
	}
}

func BenchmarkCausalBroadcast(b *testing.B) {
	const n = 8
	procs := make([]*Process, n)
	for i := 0; i < n; i++ {
		procs[i] = NewProcess(i, n, func(Message) {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := procs[i%n]
		m := src.Send(i)
		for j := 0; j < n; j++ {
			if j != src.ID() {
				procs[j].Receive(m)
			}
		}
	}
}

// concurrent reports whether two vector stamps are causally unrelated.
func concurrent(a, b []int) bool {
	return !happensBefore(a, b) && !happensBefore(b, a) && !slices.Equal(a, b)
}

// happensBefore reports whether the event stamped a causally precedes b
// (a < b in vector-clock order: a ≤ b pointwise and a ≠ b).
func happensBefore(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}
