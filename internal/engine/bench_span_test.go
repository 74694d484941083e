package engine

import (
	"testing"

	"p2pmss/internal/des"
	"p2pmss/internal/span"
)

// The BenchmarkSpanDisabled* family pins the disabled-tracing contract:
// with no collector, no flight set and no metrics the peer's Observer is
// nil and every call a driver makes per dispatch — Observe (which reads
// a failed send's span context itself), Finish, and the nil collector's
// NextID/Add — costs zero allocations. CI runs these through `benchjson
// -assert-zero-allocs BenchmarkSpanDisabled` and fails the build on any
// alloc/op. The file is in-package because msgSpan is unexported.

// BenchmarkSpanDisabledObserve measures the per-dispatch overhead the
// sim and live drivers add when tracing is off: one Observe call on the
// nil observer over a realistic control+timer effect batch.
func BenchmarkSpanDisabledObserve(b *testing.B) {
	cfg := Config{N: 10, H: 3, Interval: 3, MarkDelta: 0.1, HandshakeTimeout: 1, CommitRelease: 4, Retries: 3}
	if err := cfg.Normalize(); err != nil {
		b.Fatal(err)
	}
	p := NewPeer(cfg, 0, des.NewRand(1))
	o := Observability{}.Observer("", 0, PeerMetrics{})
	if o != nil {
		b.Fatal("observer with nothing attached must be nil")
	}
	effs := []Effect{
		&Send{To: 1, Msg: &MsgControl{Children: 3, ChildIdx: 1}},
		&Send{To: 2, Msg: &MsgControl{Children: 3, ChildIdx: 2}},
		&SetTimer{ID: TimerID{Kind: TimerConfirm}, Delay: 1},
	}
	// Box the event once, as the drivers do (events arrive as interface
	// values); the loop must measure Observe, not interface conversion.
	var ev Event = &TimerFired{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Observe(p, 0, ev, span.Context{}, effs)
	}
}

// BenchmarkSpanDisabledFinish measures the shutdown path on the nil
// observer.
func BenchmarkSpanDisabledFinish(b *testing.B) {
	o := Observability{}.Observer("", 0, PeerMetrics{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Finish(float64(i))
	}
}

// BenchmarkSpanDisabledMsgSpan measures the context extraction an
// enabled observer runs on every failed send.
func BenchmarkSpanDisabledMsgSpan(b *testing.B) {
	// Boxed once: drivers hold the message as `any` (Send.Msg) already.
	var m any = &MsgControl{Children: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ctx := msgSpan(m); ctx.Valid() {
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
