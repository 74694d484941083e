// Package des provides a deterministic discrete-event simulation engine:
// a virtual clock, an event queue, and a seeded random source. Every
// seeded stream of the simulator and the live runtime — Engine.Rand,
// each engine peer's and leaf's stream in both drivers, the failure
// models, gossip and the transport impairer — draws from Source, a
// splitmix64 generator with 8 bytes of state and an O(1) Seed, so runs
// are reproducible from a seed and a stream costs nothing to create.
//
// Events scheduled for the same instant fire in scheduling order, which
// keeps runs deterministic across platforms.
package des

import (
	"container/heap"
	"fmt"
	"math/rand"
)

// Event is a handle to a scheduled callback; it can be cancelled.
type Event struct {
	t    float64
	seq  int64
	fn   func()
	done bool
}

// Cancel prevents a pending event from firing. Cancelling an already
// fired or cancelled event is a no-op.
func (ev *Event) Cancel() { ev.done = true }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*Event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Engine is a discrete-event simulator instance.
type Engine struct {
	now     float64
	pq      eventHeap
	nextSeq int64
	rng     *rand.Rand
	fired   int64
}

// New returns an engine with its clock at 0 and randomness seeded with
// the given seed.
func New(seed int64) *Engine {
	return &Engine{rng: NewRand(seed)}
}

// Now returns the current virtual time.
func (e *Engine) Now() float64 { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() int64 { return e.fired }

// Pending returns the number of scheduled, uncancelled events.
func (e *Engine) Pending() int {
	n := 0
	for _, ev := range e.pq {
		if !ev.done {
			n++
		}
	}
	return n
}

// At schedules fn to run at virtual time t (not before the current time).
func (e *Engine) At(t float64, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, e.now))
	}
	ev := &Event{t: t, seq: e.nextSeq, fn: fn}
	e.nextSeq++
	heap.Push(&e.pq, ev)
	return ev
}

// After schedules fn to run d time units from now. Negative delays panic.
func (e *Engine) After(d float64, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	for len(e.pq) > 0 {
		ev := heap.Pop(&e.pq).(*Event)
		if ev.done {
			continue
		}
		ev.done = true
		e.now = ev.t
		e.fired++
		ev.fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to t.
func (e *Engine) RunUntil(t float64) {
	for {
		next, ok := e.peek()
		if !ok || next > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunFor executes events for d units of virtual time from now.
func (e *Engine) RunFor(d float64) { e.RunUntil(e.now + d) }

func (e *Engine) peek() (float64, bool) {
	for len(e.pq) > 0 {
		if e.pq[0].done {
			heap.Pop(&e.pq)
			continue
		}
		return e.pq[0].t, true
	}
	return 0, false
}
