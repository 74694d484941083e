package engine_test

import (
	"testing"

	"p2pmss/internal/engine"
	"p2pmss/internal/flight"
	"p2pmss/internal/span"
)

// The BenchmarkFlightDisabled* family pins the disabled flight-recorder
// contract: with no flight set (and nothing else attached) the peer's
// Observer is nil and the per-dispatch Observe call costs zero
// allocations. CI runs these through `benchjson -assert-zero-allocs
// BenchmarkFlightDisabled` and fails the build on any alloc/op.

// BenchmarkFlightDisabledObserve measures the per-dispatch overhead the
// sim and live drivers add when flight recording is off: one Observe
// call on the nil observer over a realistic control+timer effect batch.
func BenchmarkFlightDisabledObserve(b *testing.B) {
	o := engine.Observability{}.Observer("", 0, engine.PeerMetrics{})
	if o != nil {
		b.Fatal("observer with a nil flight set and nothing else must be nil")
	}
	effs := []engine.Effect{
		&engine.Send{To: 1, Msg: &engine.MsgControl{Children: 3, ChildIdx: 1}},
		&engine.Send{To: 2, Msg: &engine.MsgControl{Children: 3, ChildIdx: 2}},
		&engine.SetTimer{ID: engine.TimerID{Kind: engine.TimerConfirm}, Delay: 1},
	}
	// Box the event once, as the drivers do (events arrive as interface
	// values); the loop must measure Observe, not interface conversion.
	var ev engine.Event = &engine.TimerFired{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Observe(nil, 0, ev, span.Context{}, effs)
	}
}

// BenchmarkFlightDisabledRecorder measures the nil recorder itself —
// the allocation-free no-op a nil flight.Set hands out.
func BenchmarkFlightDisabledRecorder(b *testing.B) {
	var s *flight.Set
	r := s.Recorder("", 0)
	if r != nil {
		b.Fatal("nil set must hand out nil recorders")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(flight.Event{T: float64(i)})
	}
}
