package engine_test

import (
	"testing"

	"p2pmss/internal/des"
	"p2pmss/internal/engine"
	"p2pmss/internal/span"
)

// The BenchmarkSpanDisabled* family pins the disabled-tracing contract:
// with no collector and no histograms the tracker is nil and every call
// a driver makes per dispatch — Observe, Finish, MsgSpan, and the nil
// collector's NextID/Add — costs zero allocations. CI runs these
// through `benchjson -assert-zero-allocs BenchmarkSpanDisabled` and
// fails the build on any alloc/op.

// BenchmarkSpanDisabledObserve measures the per-dispatch overhead the
// sim and live drivers add when tracing is off: one Observe call on the
// nil tracker over a realistic control+timer effect batch.
func BenchmarkSpanDisabledObserve(b *testing.B) {
	cfg := baseConfig(10, 3, false)
	if err := cfg.Normalize(); err != nil {
		b.Fatal(err)
	}
	p := engine.NewPeer(cfg, 0, des.NewRand(1))
	tr := engine.NewSpanTracker(nil, 0, 0, engine.SpanMetrics{})
	if tr != nil {
		b.Fatal("tracker with nil collector and no metrics must be nil")
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
		tr.Observe(p, 0, ev, span.Context{}, effs)
	}
}

// BenchmarkSpanDisabledFinish measures the shutdown path on the nil
// tracker.
func BenchmarkSpanDisabledFinish(b *testing.B) {
	tr := engine.NewSpanTracker(nil, 0, 0, engine.SpanMetrics{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Finish(float64(i))
	}
}

// BenchmarkSpanDisabledMsgSpan measures the context extraction drivers
// run on every failed send.
func BenchmarkSpanDisabledMsgSpan(b *testing.B) {
	// Boxed once: drivers hold the message as `any` (Send.Msg) already.
	var m any = &engine.MsgControl{Children: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ctx := engine.MsgSpan(m); ctx.Valid() {
			b.Fatal("zero message claims a trace")
		}
	}
}

// BenchmarkSpanDisabledCollector measures the nil collector itself —
// the allocation-free no-op every guard relies on.
func BenchmarkSpanDisabledCollector(b *testing.B) {
	var c *span.Collector
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := c.NextID()
		c.Add(span.Span{Trace: 1, ID: id})
	}
}
