package des

import (
	"math"
	"testing"
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
	if e.Fired() != 3 {
		t.Errorf("Fired = %d", e.Fired())
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
	e.RunUntil(2.5)
	if len(fired) != 2 {
		t.Errorf("fired = %v", fired)
	}
	if e.Now() != 2.5 {
		t.Errorf("Now = %v, want 2.5", e.Now())
	}
	e.RunFor(10)
	if len(fired) != 4 {
		t.Errorf("fired after RunFor = %v", fired)
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

// TestScheduleAllocs pins the allocation contract: once the queue has
// grown, a fire-and-forget event costs nothing beyond its callback and
// re-arming or cancelling a timer costs nothing at all.
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
