package des

import "testing"

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New(1)
		for j := 0; j < 1000; j++ {
			e.At(float64(j%97), func() {})
		}
		e.Run()
	}
}

func BenchmarkNestedEvents(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New(1)
		var chain func()
		n := 0
		chain = func() {
			n++
			if n < 1000 {
				e.After(1, chain)
			}
		}
		e.After(1, chain)
		e.Run()
	}
}

// BenchmarkRandomEvents schedules 200,000 events at uniform random times
// in [0, 1000) on a fresh engine and runs them: a large queue with no
// locality, the shape of a big fluid run. One op is the whole batch.
func BenchmarkRandomEvents(b *testing.B) {
	const events = 200000
	rng := NewRand(1)
	times := make([]float64, events)
	for i := range times {
		times[i] = rng.Float64() * 1000
	}
	fired := 0
	fn := func() { fired++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(1)
		for _, t := range times {
			e.At(t, fn)
		}
		e.Run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}
