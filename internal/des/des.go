// Package des provides a deterministic discrete-event simulation engine:
// a virtual clock, an event queue, and a seeded random source. Every
// seeded stream of the simulator and the live runtime — Engine.Rand,
// each engine peer's and leaf's stream in both drivers, the failure
// models, gossip and the transport impairer — draws from Source, a
// splitmix64 generator with 8 bytes of state and an O(1) Seed, so runs
// are reproducible from a seed and a stream costs nothing to create.
//
// Ordering: events fire in ascending (time, scheduling sequence) order.
// Every Schedule, At, After and Timer arming takes the next sequence
// number, so events scheduled for the same instant fire in the order
// they were scheduled, which keeps runs deterministic across platforms.
// A time before the current one, or NaN, panics: the clock never runs
// back.
//
// What the queue holds is an Event, a value with a Fire method. Three
// ways to schedule one, none allocating once the queue has grown to its
// working size:
//
//   - Schedule queues an Event the caller owns, fire and forget. A
//     caller that recycles its event records (the simulator's in-flight
//     messages and engine timers) schedules them without allocating at
//     all.
//   - At and After queue a plain callback, fire and forget. The func is
//     wrapped as an Event in place, so they cost what building the
//     callback costs and nothing more: a method value or closure made
//     per call allocates, one made once does not.
//   - A Timer is the cancellable form: one callback bound at NewTimer,
//     armed and re-armed as often as needed. Cancel is eager — the timer
//     knows its queue position and its entry leaves the queue at once —
//     so a cancelled event never occupies the queue and Pending counts
//     exactly what will fire.
//
// The queue is a 4-ary min-heap of 32-byte value entries whose key sits
// inline, so a comparison dereferences nothing; its backing array grows
// by doubling.
//
// FreeList and Slab (pool.go) are where a run's pooled records and
// per-peer slices come from, a block at a time. An engine, its lists
// and its slabs can each be Reset and serve the next run, which is how
// the simulator reuses one run's memory for the next.
package des

import (
	"fmt"
	"math/rand"
)

// Event is something that happens at a virtual time: the queue calls
// Fire when the clock reaches it. A pointer to a caller's record is an
// Event without an allocation.
type Event interface{ Fire() }

// funcEvent is a callback as an Event. A func value is one pointer, so
// the conversion stores it in the interface as is.
type funcEvent func()

func (f funcEvent) Fire() { f() }

// entry is one scheduled event: its key inline, then the event. A
// *Timer event is the cancellable kind, whose queue position the heap
// keeps up to date.
type entry struct {
	t   float64
	seq int64
	ev  Event
}

// before is the queue's total order: time, then scheduling sequence.
func (a *entry) before(b *entry) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// Timer is a reusable, cancellable event: one callback, armed at a time
// and re-armed at will. It is armed by its own At and After, never by
// Engine.Schedule. The zero value is not usable; see Engine.NewTimer.
type Timer struct {
	e   *Engine
	fn  func()
	idx int // queue position while pending, -1 otherwise
}

// NewTimer returns a disarmed timer that runs fn each time it fires.
func (e *Engine) NewTimer(fn func()) *Timer {
	return &Timer{e: e, fn: fn, idx: -1}
}

// At arms the timer to fire at virtual time t, replacing any pending
// firing. The arming takes a fresh scheduling sequence, so the timer
// orders exactly as an event newly scheduled with Engine.At would.
func (tm *Timer) At(t float64) {
	e := tm.e
	e.check(t)
	if tm.idx < 0 {
		e.push(entry{t: t, seq: e.take(), ev: tm})
		return
	}
	i := tm.idx
	e.q[i].t, e.q[i].seq = t, e.take()
	e.fix(i)
}

// After arms the timer to fire d time units from now, replacing any
// pending firing. Negative or NaN delays panic.
func (tm *Timer) After(d float64) {
	checkDelay(d)
	tm.At(tm.e.now + d)
}

// Cancel removes a pending firing from the queue. Cancelling a timer
// that is not pending (never armed, already fired or cancelled) is a
// no-op.
func (tm *Timer) Cancel() {
	if tm.idx >= 0 {
		tm.e.remove(tm.idx)
	}
}

// Pending reports whether the timer is armed and has not fired yet. It
// is false while the timer's own callback runs.
func (tm *Timer) Pending() bool { return tm.idx >= 0 }

// Fire runs the timer's callback; the queue calls it when the armed
// time comes.
func (tm *Timer) Fire() { tm.fn() }

// Engine is a discrete-event simulator instance.
type Engine struct {
	now     float64
	q       []entry
	nextSeq int64
	rng     *rand.Rand
}

// New returns an engine with its clock at 0 and randomness seeded with
// the given seed.
func New(seed int64) *Engine {
	return &Engine{rng: NewRand(seed)}
}

// Reset makes e a new engine with its clock at 0 for the next simulated
// run, keeping the queue's backing array: the events still queued are
// dropped (a dropped Timer is disarmed) and the sequence numbers start
// again from 0. The random stream is left where it is; reseed it with
// Rand().Seed, which restarts it as New does.
func (e *Engine) Reset() {
	for i := range e.q {
		if tm, ok := e.q[i].ev.(*Timer); ok {
			tm.idx = -1
		}
	}
	clear(e.q)
	e.q = e.q[:0]
	e.now, e.nextSeq = 0, 0
}

// Now returns the current virtual time.
func (e *Engine) Now() float64 { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Schedule queues ev to fire at virtual time t. A time before the
// current one, or NaN, panics, and so does a *Timer: a timer is armed
// by its At or After, which keep track of its place in the queue.
func (e *Engine) Schedule(t float64, ev Event) {
	e.check(t)
	if _, ok := ev.(*Timer); ok {
		panic("des: Schedule given a *Timer; arm it with its At or After")
	}
	e.push(entry{t: t, seq: e.take(), ev: ev})
}

// At schedules fn to run at virtual time t. A time before the current
// one, or NaN, panics.
func (e *Engine) At(t float64, fn func()) {
	e.check(t)
	e.push(entry{t: t, seq: e.take(), ev: funcEvent(fn)})
}

// After schedules fn to run d time units from now. Negative or NaN
// delays panic.
func (e *Engine) After(d float64, fn func()) {
	checkDelay(d)
	e.At(e.now+d, fn)
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	if len(e.q) == 0 {
		return false
	}
	top := e.q[0]
	e.remove(0)
	e.now = top.t
	top.ev.Fire()
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// check panics unless t is a valid time to schedule at: not NaN and not
// before now (written so that NaN fails the comparison).
func (e *Engine) check(t float64) {
	if !(t >= e.now) {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, e.now))
	}
}

func checkDelay(d float64) {
	if !(d >= 0) {
		panic(fmt.Sprintf("des: negative delay %v", d))
	}
}

// take returns the next scheduling sequence number.
func (e *Engine) take() int64 {
	s := e.nextSeq
	e.nextSeq++
	return s
}

// ---- 4-ary min-heap ---------------------------------------------------------

// arity is the heap's fan-out: a shallower tree than a binary heap, and
// a node's children share a cache line or two.
const arity = 4

// push adds en, growing the backing array by doubling (append's 1.25×
// growth for large slices would reallocate about five times the final
// size over a run).
func (e *Engine) push(en entry) {
	n := len(e.q)
	if n == cap(e.q) {
		q := make([]entry, n, max(64, 2*n))
		copy(q, e.q)
		e.q = q
	}
	e.q = e.q[:n+1]
	e.up(n, en)
}

// remove takes the entry at i out of the queue and disarms its timer.
func (e *Engine) remove(i int) {
	if tm, ok := e.q[i].ev.(*Timer); ok {
		tm.idx = -1
	}
	last := len(e.q) - 1
	en := e.q[last]
	e.q[last] = entry{} // drop the event reference
	e.q = e.q[:last]
	if i < last {
		e.q[i] = en
		e.fix(i)
	}
}

// fix restores the order after the key at i changed.
func (e *Engine) fix(i int) {
	en := e.q[i]
	if i > 0 && en.before(&e.q[(i-1)/arity]) {
		e.up(i, en)
	} else {
		e.down(i, en)
	}
}

// up places en at the hole i or above it, moving parents down.
func (e *Engine) up(i int, en entry) {
	q := e.q
	for i > 0 {
		p := (i - 1) / arity
		if !en.before(&q[p]) {
			break
		}
		e.set(i, q[p])
		i = p
	}
	e.set(i, en)
}

// down places en at the hole i or below it, moving children up.
func (e *Engine) down(i int, en entry) {
	q := e.q
	n := len(q)
	for {
		c := arity*i + 1
		if c >= n {
			break
		}
		best := c
		for j, end := c+1, min(c+arity, n); j < end; j++ {
			if q[j].before(&q[best]) {
				best = j
			}
		}
		if !q[best].before(&en) {
			break
		}
		e.set(i, q[best])
		i = best
	}
	e.set(i, en)
}

// set stores en at i and tells its timer where it is.
func (e *Engine) set(i int, en entry) {
	e.q[i] = en
	if tm, ok := en.ev.(*Timer); ok {
		tm.idx = i
	}
}
