package fluid

import (
	"math"
	"math/rand"
	"testing"
)

// bruteFlow replays one flow's send times tick by tick — the reference
// the closed-form ledger must match.
type bruteFlow struct {
	sends []float64
	downs []interval
}

func (b *bruteFlow) sendsBefore(until float64) int64 {
	var n int64
	for _, t := range b.sends {
		if t < until {
			n++
		}
	}
	return n
}

func (b *bruteFlow) deliveredIn(lo, hi float64) int64 {
	var n int64
	for _, t := range b.sends {
		if t < lo || t >= hi {
			continue
		}
		masked := false
		for _, d := range b.downs {
			if t >= d.from && t < d.to {
				masked = true
				break
			}
		}
		if !masked {
			n++
		}
	}
	return n
}

func TestLedgerMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const horizon = 200.0
	for trial := 0; trial < 200; trial++ {
		l := newLedger(1)
		var b bruteFlow
		now := 0.0
		open := segment{until: math.Inf(1)}
		emit := func(upTo float64) {
			if open.period <= 0 {
				return
			}
			for k := 0; ; k++ {
				ts := open.first + float64(k)*open.period
				if ts >= upTo {
					return
				}
				b.sends = append(b.sends, ts)
			}
		}
		masked := false
		for now < horizon {
			now += rng.Float64() * 20
			switch op := rng.Intn(4); op {
			case 0, 1: // reassign
				emit(now)
				rate := 0.2 + rng.Float64()*5
				phase := rng.Float64() / rate
				l.Start(0, now, phase, 1/rate)
				open = segment{first: now + phase, period: 1 / rate, until: math.Inf(1)}
			case 2: // crash
				if !masked {
					masked = true
					l.Mask(0, now)
					b.downs = append(b.downs, interval{from: now, to: math.Inf(1)})
				}
			case 3: // rejoin
				if masked {
					masked = false
					l.Unmask(0, now)
					b.downs[len(b.downs)-1].to = now
				}
			}
		}
		emit(horizon + 100) // past every probe below

		for probe := 0; probe < 20; probe++ {
			until := rng.Float64() * (horizon + 20)
			if got, want := l.Sends(0, until), b.sendsBefore(until); got != want {
				t.Fatalf("trial %d: Sends(%v) = %d, brute force %d", trial, until, got, want)
			}
			lo := rng.Float64() * horizon
			hi := lo + rng.Float64()*60
			got := l.Arrivals(lo, hi, 0, 1)
			want := float64(b.deliveredIn(lo, hi))
			if got != want {
				t.Fatalf("trial %d: Arrivals(%v,%v) = %v, brute force %v", trial, lo, hi, got, want)
			}
		}
	}
}

func TestLedgerBoundaries(t *testing.T) {
	l := newLedger(2)
	// Flow 0: first send at 1.0, period 1 → sends at 1, 2, 3, ...
	l.Start(0, 0, 1.0, 1.0)
	if got := l.Sends(0, 1.0); got != 0 {
		t.Errorf("send exactly at the bound must be excluded: got %d", got)
	}
	if got := l.Sends(0, 1.0000001); got != 1 {
		t.Errorf("Sends just past first = %d, want 1", got)
	}
	if got := l.Sends(0, 10.5); got != 10 {
		t.Errorf("Sends(10.5) = %d, want 10", got)
	}
	// Cut at 5.0: the send at exactly 5.0 is cancelled.
	l.Cut(0, 5.0)
	if got := l.Sends(0, 100); got != 4 {
		t.Errorf("Sends after cut = %d, want 4 (at 1..4)", got)
	}
	// Arrivals map the window back by latency and thin by survival.
	l.Start(1, 0, 0.5, 1.0) // sends at 0.5, 1.5, 2.5, ...
	got := l.Arrivals(10.5, 14.5, 10, 0.75)
	// Sends in [0.5, 4.5): 0.5, 1.5, 2.5, 3.5 from flow 1; flow 0 adds 1..4.
	if want := 8 * 0.75; got != want {
		t.Errorf("Arrivals = %v, want %v", got, want)
	}
	// Zero-rate Start just cuts.
	l.Start(1, 3.0, 0.1, 0)
	if gotS := l.Sends(1, 100); gotS != 3 {
		t.Errorf("Sends after zero-period Start = %d, want 3", gotS)
	}
}

func TestLedgerMaskSuppressesArrivalsNotSends(t *testing.T) {
	l := newLedger(1)
	l.Start(0, 0, 1.0, 1.0) // sends at 1, 2, 3, ...
	l.Mask(0, 2.5)
	l.Unmask(0, 5.5)
	if got := l.Sends(0, 8.5); got != 8 {
		t.Errorf("Sends must count through downtime: got %d, want 8", got)
	}
	// Sends at 3, 4, 5 are masked; 1, 2, 6, 7, 8 arrive.
	if got := l.Arrivals(0, 8.5, 0, 1); got != 5 {
		t.Errorf("Arrivals = %v, want 5", got)
	}
	// Double mask / unmatched unmask are no-ops.
	l.Mask(0, 9)
	l.Mask(0, 10)
	l.Unmask(0, 11)
	l.Unmask(0, 12)
	if got := l.Arrivals(8.5, 13, 0, 1); got != 2 {
		t.Errorf("Arrivals after re-mask = %v, want 2 (at 11 and 12)", got)
	}
}

// newLedger returns a ledger for n idle flows.
func newLedger(n int) *Ledger {
	l := new(Ledger)
	l.Reset(n)
	return l
}
