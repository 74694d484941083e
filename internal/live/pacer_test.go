package live

import (
	"testing"
	"time"
)

// The pacer tests run on fabricated timestamps: nothing sleeps.

var pacerStart = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// Woken exactly when each packet is due, the schedule stays on
// start + n·interval however long the loop has run.
func TestPacerOnTimeKeepsSchedule(t *testing.T) {
	const interval = 500 * time.Microsecond
	var p pacer
	now := pacerStart
	for n := 1; n <= 10000; n++ {
		wait := p.next(now, interval)
		if wait != interval {
			t.Fatalf("packet %d: wait %v, want %v", n, wait, interval)
		}
		now = now.Add(wait)
		if want := pacerStart.Add(time.Duration(n) * interval); !now.Equal(want) {
			t.Fatalf("packet %d sent at %v, want %v", n, now, want)
		}
	}
}

// Time spent sending and a timer that fires late are taken out of the next
// wait, so they do not accumulate: the old per-packet sleep finished a
// stream late by their sum.
func TestPacerAbsorbsSendTimeAndTimerLatency(t *testing.T) {
	const interval = time.Millisecond
	var p pacer
	now := pacerStart
	for n := 1; n <= 1000; n++ {
		now = now.Add(p.next(now, interval))
		now = now.Add(300 * time.Microsecond) // timer latency plus the send
	}
	if late := now.Sub(pacerStart.Add(1000 * interval)); late != 300*time.Microsecond {
		t.Fatalf("stream of 1000 packets ended %v late, want only the last packet's 300µs", late)
	}
}

// A wakeup late by less than the bound is followed by zero-wait sends
// until the schedule is caught up, and then by the regular spacing.
func TestPacerCatchesUpAfterLateWakeup(t *testing.T) {
	const interval = time.Millisecond
	var p pacer
	now := pacerStart
	now = now.Add(p.next(now, interval)) // packet 1, on time at start+1ms
	now = now.Add(5*interval + interval/2)
	// Packets 2..6 were due at start+2ms..start+6ms, all in the past.
	for n := 2; n <= 6; n++ {
		if wait := p.next(now, interval); wait != 0 {
			t.Fatalf("packet %d while behind: wait %v, want 0", n, wait)
		}
	}
	// Packet 7 is due at start+7ms; now is start+6.5ms.
	if wait := p.next(now, interval); wait != interval/2 {
		t.Fatalf("first packet after catching up: wait %v, want %v", wait, interval/2)
	}
	now = now.Add(interval / 2)
	if wait := p.next(now, interval); wait != interval {
		t.Fatalf("back on schedule: wait %v, want %v", wait, interval)
	}
}

// Lateness beyond the bound is forgiven: one packet goes out at once and
// the schedule restarts from now, instead of a burst of the whole deficit.
func TestPacerForgivesLatenessBeyondBound(t *testing.T) {
	const interval = time.Millisecond
	var p pacer
	now := pacerStart
	now = now.Add(p.next(now, interval))
	now = now.Add(pacerMaxLag + 10*interval)
	if wait := p.next(now, interval); wait != 0 {
		t.Fatalf("first packet after the stall: wait %v, want 0", wait)
	}
	if wait := p.next(now, interval); wait != interval {
		t.Fatalf("second packet after the stall: wait %v, want %v (schedule restarted)", wait, interval)
	}
	// Exactly at the bound the backlog is still sent.
	p.reset()
	now = pacerStart
	now = now.Add(p.next(now, interval))
	now = now.Add(interval + pacerMaxLag)
	burst := 0
	for p.next(now, interval) == 0 {
		burst++
	}
	if want := int(pacerMaxLag/interval) + 1; burst != want {
		t.Fatalf("burst after a stall of exactly the bound: %d packets, want %d", burst, want)
	}
}

// A rate change mid-stream (a merge or hand-off) spaces the following
// packets at the new interval without a burst or a gap: the packet already
// scheduled keeps its due time.
func TestPacerRateChangeMidStream(t *testing.T) {
	var p pacer
	now := pacerStart
	for n := 0; n < 5; n++ {
		now = now.Add(p.next(now, time.Millisecond))
	}
	// now = start+5ms and packet 6 is due at start+6ms under either rate.
	if wait := p.next(now, 250*time.Microsecond); wait != time.Millisecond {
		t.Fatalf("first packet after the rate went up: wait %v, want 1ms", wait)
	}
	now = now.Add(time.Millisecond)
	for n := 0; n < 8; n++ {
		wait := p.next(now, 250*time.Microsecond)
		if wait != 250*time.Microsecond {
			t.Fatalf("packet %d at the new rate: wait %v, want 250µs", n, wait)
		}
		now = now.Add(wait)
	}
	if wait := p.next(now, 2*time.Millisecond); wait != 250*time.Microsecond {
		t.Fatalf("first packet after the rate went down: wait %v, want 250µs", wait)
	}
	now = now.Add(250 * time.Microsecond)
	if wait := p.next(now, 2*time.Millisecond); wait != 2*time.Millisecond {
		t.Fatalf("second packet after the rate went down: wait %v, want 2ms", wait)
	}
}

// A stream that went idle and is woken later starts a new schedule: the
// idle time is not a deficit to catch up on.
func TestPacerRestartsAfterIdle(t *testing.T) {
	const interval = time.Millisecond
	var p pacer
	now := pacerStart
	for n := 0; n < 3; n++ {
		now = now.Add(p.next(now, interval))
	}
	p.reset()
	now = now.Add(3 * interval) // idle for less than the bound
	if wait := p.next(now, interval); wait != interval {
		t.Fatalf("first packet after idle: wait %v, want %v", wait, interval)
	}
	now = now.Add(interval)
	if wait := p.next(now, interval); wait != interval {
		t.Fatalf("second packet after idle: wait %v, want %v", wait, interval)
	}
}

func BenchmarkPacerSchedule(b *testing.B) {
	const interval = 62500 * time.Nanosecond
	var p pacer
	now := pacerStart
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Every fourth wakeup is two intervals late, so both branches run.
		now = now.Add(p.next(now, interval))
		if i%4 == 0 {
			now = now.Add(2 * interval)
		}
	}
}
