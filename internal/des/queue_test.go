package des

import (
	"math/rand"
	"sort"
	"testing"
)

// refEntry is one event of the reference queue: what fires (id), when,
// and which timer owns it (-1 for a fire-and-forget event).
type refEntry struct {
	t     float64
	seq   int64
	id    int
	timer int
}

// refQueue is the obviously-correct model Engine is checked against: a
// slice kept sorted by (time, scheduling sequence), cancelled entries
// spliced out.
type refQueue struct {
	now   float64
	seq   int64
	fired int64
	q     []refEntry
}

func (r *refQueue) add(t float64, id, timer int) {
	i := sort.Search(len(r.q), func(i int) bool { return r.q[i].t > t })
	r.q = append(r.q, refEntry{})
	copy(r.q[i+1:], r.q[i:])
	r.q[i] = refEntry{t: t, seq: r.seq, id: id, timer: timer}
	r.seq++
}

// cancel removes the timer's pending entry and reports whether there was
// one and whether it was the head.
func (r *refQueue) cancel(timer int) (found, head bool) {
	for i, en := range r.q {
		if en.timer == timer {
			r.q = append(r.q[:i], r.q[i+1:]...)
			return true, i == 0
		}
	}
	return false, false
}

func (r *refQueue) pop() refEntry {
	en := r.q[0]
	r.q = r.q[1:]
	r.now = en.t
	r.fired++
	return en
}

// diffRun drives an Engine and a refQueue through the same random
// operations and fails on the first disagreement.
type diffRun struct {
	t      *testing.T
	rng    *rand.Rand
	e      *Engine
	ref    refQueue
	timers []*Timer
	armed  []int // id of each timer's pending arming; -1 fired, -2 cancelled
	free   []*diffEvent
	nextID int
	fired  int64

	// Coverage of the cases the test must reach.
	cancelInFire, cancelFired, cancelTwice, headCancelledRun, liveHeadRun, maxPending int
	headCancelled                                                                     bool
}

func newDiffRun(t *testing.T, seed int64, timers int) *diffRun {
	d := &diffRun{t: t, rng: rand.New(rand.NewSource(seed)), e: New(seed)}
	for k := 0; k < timers; k++ {
		k := k
		d.timers = append(d.timers, d.e.NewTimer(func() { d.fire(d.armed[k], k) }))
		d.armed = append(d.armed, -1)
	}
	return d
}

// when draws a time at or after now from a coarse grid, so many events
// share an instant and FIFO ties span heap levels.
func (d *diffRun) when() float64 {
	return d.e.Now() + 0.5*float64(d.rng.Intn(4))
}

func (d *diffRun) id() int {
	d.nextID++
	return d.nextID
}

// diffEvent is a pooled event of the run, reused once it has fired,
// the way the simulator recycles its in-flight messages.
type diffEvent struct {
	d  *diffRun
	id int
}

func (ev *diffEvent) Fire() {
	d, id := ev.d, ev.id
	d.free = append(d.free, ev)
	d.fire(id, -1)
}

func (d *diffRun) schedule() {
	id := d.id()
	switch d.rng.Intn(3) {
	case 0:
		t := d.when()
		d.e.At(t, func() { d.fire(id, -1) })
		d.ref.add(t, id, -1)
	case 1:
		dt := d.when() - d.e.Now()
		d.e.After(dt, func() { d.fire(id, -1) })
		d.ref.add(d.ref.now+dt, id, -1)
	default:
		ev := &diffEvent{d: d}
		if k := len(d.free) - 1; k >= 0 {
			ev, d.free = d.free[k], d.free[:k]
		}
		ev.id = id
		t := d.when()
		d.e.Schedule(t, ev)
		d.ref.add(t, id, -1)
	}
}

func (d *diffRun) arm(k int) {
	id := d.id()
	d.ref.cancel(k)
	t := d.when()
	if d.rng.Intn(2) == 0 {
		d.timers[k].At(t)
	} else {
		d.timers[k].After(t - d.e.Now())
	}
	d.ref.add(t, id, k)
	d.armed[k] = id
}

func (d *diffRun) cancel(k int, inFire bool) {
	_, head := d.ref.cancel(k)
	switch {
	case inFire:
		d.cancelInFire++
	case d.armed[k] == -1:
		d.cancelFired++
	case d.armed[k] == -2:
		d.cancelTwice++
	}
	d.armed[k] = -2 // cancelled: a further cancel is a double one
	d.headCancelled = d.headCancelled || head && !inFire
	d.timers[k].Cancel()
}

// fire is every callback: it checks the engine fired what the reference
// pops next, then sometimes schedules, re-arms or cancels from inside.
func (d *diffRun) fire(id, timer int) {
	d.fired++
	want := d.ref.pop()
	if want.id != id || d.e.Now() != want.t {
		d.t.Fatalf("fired id %d at %v, reference fires id %d at %v", id, d.e.Now(), want.id, want.t)
	}
	if timer >= 0 {
		d.armed[timer] = -1
	}
	switch d.rng.Intn(6) {
	case 0:
		d.schedule()
	case 1:
		d.arm(d.rng.Intn(len(d.timers)))
	case 2:
		d.cancel(d.rng.Intn(len(d.timers)), true)
	case 3:
		if timer >= 0 {
			d.cancel(timer, true) // cancel oneself while firing: a no-op
		}
	}
}

func (d *diffRun) check(op string) {
	if d.e.Now() != d.ref.now || d.fired != d.ref.fired || d.e.Pending() != len(d.ref.q) {
		d.t.Fatalf("after %s: Now %v fired %d Pending %d; reference %v %d %d",
			op, d.e.Now(), d.fired, d.e.Pending(), d.ref.now, d.ref.fired, len(d.ref.q))
	}
	for k, tm := range d.timers {
		if tm.Pending() != (d.armed[k] >= 0) {
			d.t.Fatalf("after %s: timer %d pending %v, reference %v", op, k, tm.Pending(), d.armed[k] >= 0)
		}
	}
	d.maxPending = max(d.maxPending, len(d.ref.q))
}

// run runs the engine and the reference up to t.
func (d *diffRun) run(t float64) {
	if d.headCancelled {
		d.headCancelledRun++
	} else if len(d.ref.q) > 0 && d.ref.q[0].t <= t {
		d.liveHeadRun++
	}
	runUntil(d.e, t)
	if len(d.ref.q) > 0 && d.ref.q[0].t <= t {
		d.t.Fatalf("running to %v left id %d at %v", t, d.ref.q[0].id, d.ref.q[0].t)
	}
	if t > d.ref.now {
		d.ref.now = t
	}
}

// op performs one random operation. While growing, most runs give way
// to scheduling, so the queue gets several heap levels deep.
func (d *diffRun) op(growing bool) {
	r := d.rng.Intn(20)
	if growing && r >= 13 && d.rng.Intn(8) > 0 {
		r = d.rng.Intn(13)
	}
	switch {
	case r < 6:
		d.schedule()
		d.check("At/After/Schedule")
		return
	case r < 10:
		d.arm(d.rng.Intn(len(d.timers)))
		d.check("Timer.At/After")
		return
	case r < 13:
		d.cancel(d.rng.Intn(len(d.timers)), false)
		d.check("Cancel")
		return
	case r < 16:
		pending := len(d.ref.q) > 0
		if ok := d.e.Step(); ok != pending {
			d.t.Fatalf("Step = %v with %d pending in the reference", ok, len(d.ref.q))
		}
		d.check("Step")
	default:
		t := d.when()
		d.run(t)
		d.check("runUntil")
	}
	d.headCancelled = false
}

// TestQueueMatchesReference checks Engine against a sorted-slice model
// over seeded random interleavings of At, After, Schedule of pooled
// events, timer arming, Cancel, Step and runUntil, comparing fire order,
// Now, the fire count and Pending at every step.
func TestQueueMatchesReference(t *testing.T) {
	var total diffRun
	for seed := int64(1); seed <= 40; seed++ {
		d := newDiffRun(t, seed, 12)
		for i := 0; i < 3000; i++ {
			d.op(i/500%2 == 0)
		}
		d.e.Run()
		if len(d.ref.q) > 0 {
			t.Fatalf("seed %d: Run left id %d in the reference", seed, d.ref.q[0].id)
		}
		d.check("Run")
		total.cancelInFire += d.cancelInFire
		total.cancelFired += d.cancelFired
		total.cancelTwice += d.cancelTwice
		total.headCancelledRun += d.headCancelledRun
		total.liveHeadRun += d.liveHeadRun
		total.maxPending = max(total.maxPending, d.maxPending)
	}
	t.Logf("cancels in a callback %d, of a fired timer %d, double %d; runUntil after a cancelled head %d, with a live head %d; max pending %d",
		total.cancelInFire, total.cancelFired, total.cancelTwice, total.headCancelledRun, total.liveHeadRun, total.maxPending)
	for _, c := range []struct {
		name string
		n    int
	}{
		{"cancel inside a firing callback", total.cancelInFire},
		{"cancel of a fired timer", total.cancelFired},
		{"double cancel", total.cancelTwice},
		{"runUntil after the head was cancelled", total.headCancelledRun},
		{"runUntil with a live head due", total.liveHeadRun},
	} {
		if c.n == 0 {
			t.Errorf("never exercised: %s", c.name)
		}
	}
	// 1+4+16 entries fill the top three levels of the 4-ary heap: more
	// pending than that puts equal times on different levels.
	if total.maxPending <= 21 {
		t.Errorf("queue never exceeded %d entries; ties never span heap levels", total.maxPending)
	}
}
