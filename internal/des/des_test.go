package des

import (
	"math"
	"slices"
	"testing"
	"unsafe"
)

func TestEventOrdering(t *testing.T) {
	e := New(1)
	var order []int
	e.At(2, func() { order = append(order, 2) })
	e.At(1, func() { order = append(order, 1) })
	e.At(3, func() { order = append(order, 3) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 3 {
		t.Errorf("Now = %v", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	e := New(1)
	var times []float64
	e.After(1, func() {
		times = append(times, e.Now())
		e.After(2, func() { times = append(times, e.Now()) })
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("times = %v", times)
	}
}

func TestCancel(t *testing.T) {
	e := New(1)
	fired := 0
	tm := e.NewTimer(func() { fired++ })
	tm.At(1)
	tm.Cancel()
	e.Run()
	if fired != 0 {
		t.Error("cancelled timer fired")
	}
	// Cancel after fire is a no-op, and so is a second one.
	tm.At(2)
	e.Run()
	tm.Cancel()
	tm.Cancel()
	if fired != 1 || e.Pending() != 0 {
		t.Errorf("fired = %d, Pending = %d; want 1, 0", fired, e.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	var fired []float64
	for _, tt := range []float64{1, 2, 3, 4} {
		tt := tt
		e.At(tt, func() { fired = append(fired, tt) })
	}
	runUntil(e, 2.5)
	if len(fired) != 2 {
		t.Errorf("fired = %v", fired)
	}
	if e.Now() != 2.5 {
		t.Errorf("Now = %v, want 2.5", e.Now())
	}
	runUntil(e, e.Now()+10)
	if len(fired) != 4 {
		t.Errorf("fired after running 10 more = %v", fired)
	}
}

func TestPending(t *testing.T) {
	e := New(1)
	tm := e.NewTimer(func() {})
	tm.At(1)
	e.At(2, func() {})
	if e.Pending() != 2 {
		t.Errorf("Pending = %d", e.Pending())
	}
	tm.Cancel()
	if e.Pending() != 1 {
		t.Errorf("Pending after cancel = %d", e.Pending())
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed diverged")
		}
	}
	c := New(43)
	same := true
	for i := 0; i < 10; i++ {
		if a.Rand().Int63() != c.Rand().Int63() {
			same = false
		}
	}
	if same {
		t.Error("different seeds identical")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New(1)
	e.At(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("At(past) did not panic")
		}
	}()
	e.At(1, func() {})
}

func TestNegativeAfterPanics(t *testing.T) {
	e := New(1)
	defer func() {
		if recover() == nil {
			t.Error("After(-1) did not panic")
		}
	}()
	e.After(-1, func() {})
}

// TestScheduleTimeChecks pins which times and delays scheduling
// accepts: never one before now and never NaN (a NaN key would misorder
// the queue, and a NaN clock would disable every later check).
func TestScheduleTimeChecks(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name  string
		sched func(e *Engine)
		panic bool
	}{
		{"At(past)", func(e *Engine) { e.At(1, func() {}) }, true},
		{"At(NaN)", func(e *Engine) { e.At(nan, func() {}) }, true},
		{"At(now)", func(e *Engine) { e.At(5, func() {}) }, false},
		{"At(+Inf)", func(e *Engine) { e.At(inf, func() {}) }, false},
		{"After(-1)", func(e *Engine) { e.After(-1, func() {}) }, true},
		{"After(NaN)", func(e *Engine) { e.After(nan, func() {}) }, true},
		{"After(0)", func(e *Engine) { e.After(0, func() {}) }, false},
		{"After(+Inf)", func(e *Engine) { e.After(inf, func() {}) }, false},
		{"Timer.At(past)", func(e *Engine) { e.NewTimer(func() {}).At(1) }, true},
		{"Timer.At(NaN)", func(e *Engine) { e.NewTimer(func() {}).At(nan) }, true},
		{"Timer.After(-1)", func(e *Engine) { e.NewTimer(func() {}).After(-1) }, true},
		{"Timer.After(NaN)", func(e *Engine) { e.NewTimer(func() {}).After(nan) }, true},
		{"Timer.At(+Inf)", func(e *Engine) { e.NewTimer(func() {}).At(inf) }, false},
		{"Schedule(past)", func(e *Engine) { e.Schedule(1, &logEvent{}) }, true},
		{"Schedule(NaN)", func(e *Engine) { e.Schedule(nan, &logEvent{}) }, true},
		{"Schedule(now)", func(e *Engine) { e.Schedule(5, &logEvent{}) }, false},
		{"Schedule(*Timer)", func(e *Engine) { e.Schedule(6, e.NewTimer(func() {})) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(1)
			e.At(5, func() {})
			e.Run()
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				tc.sched(e)
				return false
			}()
			if panicked != tc.panic {
				t.Fatalf("panicked = %v, want %v", panicked, tc.panic)
			}
			if !tc.panic && e.Pending() != 1 {
				t.Errorf("Pending = %d after an accepted schedule", e.Pending())
			}
		})
	}
}

// logEvent is a caller-owned event: it appends its name to log.
type logEvent struct {
	log  *[]string
	name string
}

func (ev *logEvent) Fire() { *ev.log = append(*ev.log, ev.name) }

// TestEventKindsInterleave: timers, callbacks and caller-owned events
// share one order, (time, scheduling sequence), whatever their kind; a
// cancelled timer leaves its place without disturbing the rest, and a
// re-armed one takes the place of a fresh scheduling.
func TestEventKindsInterleave(t *testing.T) {
	e := New(1)
	var log []string
	fn := func(name string) func() { return func() { log = append(log, name) } }
	ev := func(name string) *logEvent { return &logEvent{log: &log, name: name} }
	t1, t2, t3 := e.NewTimer(fn("t1")), e.NewTimer(fn("t2")), e.NewTimer(fn("t3"))
	e.Schedule(2, ev("e1"))
	t1.At(1)
	e.At(2, fn("f1"))
	t2.At(2)
	e.Schedule(1, ev("e2"))
	e.After(1, fn("f2"))
	t3.At(2)
	e.Schedule(2, ev("e3"))
	t2.Cancel()
	t1.At(2) // re-armed: now behind e3
	e.Schedule(0.5, ev("e4"))
	e.Run()
	want := []string{"e4", "e2", "f2", "e1", "f1", "t3", "e3", "t1"}
	if !slices.Equal(log, want) {
		t.Errorf("fired %v, want %v", log, want)
	}
}

// TestScheduleAllocs pins the allocation contract: once the queue has
// grown, a fire-and-forget callback costs nothing beyond the callback,
// a caller-owned event and re-arming or cancelling a timer nothing at
// all.
func TestScheduleAllocs(t *testing.T) {
	e := New(1)
	fn := func() {}
	for i := 0; i < 100; i++ {
		e.After(float64(i%7), fn)
	}
	e.Run()
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 50; i++ {
			e.After(float64(i%7), fn)
		}
		e.Run()
	}); n != 0 {
		t.Errorf("At/After + Run: %v allocs, want 0", n)
	}
	var log []string
	evs := []*logEvent{{log: &log}, {log: &log}, {log: &log}}
	if n := testing.AllocsPerRun(100, func() {
		for i, ev := range evs {
			e.Schedule(e.Now()+float64(3-i), ev)
		}
		e.Run()
		log = log[:0]
	}); n != 0 {
		t.Errorf("Schedule of a pooled event + Run: %v allocs, want 0", n)
	}
	tm := e.NewTimer(fn)
	if n := testing.AllocsPerRun(100, func() {
		tm.After(2)
		tm.After(1)
		tm.Cancel()
		tm.After(3)
		e.Run()
	}); n != 0 {
		t.Errorf("Timer arm/cancel/fire: %v allocs, want 0", n)
	}
}

// A queue entry stays 32 bytes: the key and an interface, nothing
// beside them for a timer.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n > 32 {
		t.Errorf("a queue entry is %d bytes, want at most 32", n)
	}
}

// runUntil executes e's events with time ≤ t, then advances its clock
// to t.
func runUntil(e *Engine, t float64) {
	for len(e.q) > 0 && e.q[0].t <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// TestResetMatchesNew: an engine Reset with events still queued and a
// timer armed, its stream reseeded, is the engine New makes: clock,
// sequence numbers, an empty queue, the timer disarmed, and the same
// events in the same order and draws after. It keeps its queue's array.
func TestResetMatchesNew(t *testing.T) {
	// trace schedules a fixed mix on e, timer tm included, and returns
	// what fired when, with a draw per event.
	trace := func(e *Engine, tm *Timer, fired *[]float64) []float64 {
		*fired = (*fired)[:0]
		for i := 0; i < 50; i++ {
			e.At(float64(i%7), func() { *fired = append(*fired, e.Now(), e.Rand().Float64()) })
		}
		tm.At(3)
		e.Run()
		return append([]float64(nil), *fired...)
	}
	var got, want []float64
	fresh := New(5)
	want = trace(fresh, fresh.NewTimer(func() { want = append(want, -1) }), &want)

	e := New(9)
	tm := e.NewTimer(func() { got = append(got, -1) })
	for i := 0; i < 300; i++ {
		e.At(float64(i), func() {})
	}
	tm.At(50)
	e.Step()
	q := cap(e.q)
	e.Reset()
	e.Rand().Seed(5)
	if e.now != 0 || e.nextSeq != 0 || len(e.q) != 0 || tm.Pending() {
		t.Fatalf("after Reset: now %v, next sequence %d, %d queued, timer pending %v; want 0, 0, 0, false",
			e.now, e.nextSeq, len(e.q), tm.Pending())
	}
	if cap(e.q) != q {
		t.Errorf("Reset left a queue of capacity %d, want the %d it had", cap(e.q), q)
	}
	if got = trace(e, tm, &got); !slices.Equal(got, want) {
		t.Errorf("a reset engine ran %v, a new one %v", got, want)
	}
	if e.nextSeq != fresh.nextSeq {
		t.Errorf("a reset engine numbered %d events, a new one %d", e.nextSeq, fresh.nextSeq)
	}
}
