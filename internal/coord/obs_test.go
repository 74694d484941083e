package coord

import (
	"fmt"
	"testing"

	"p2pmss/internal/flight"
	"p2pmss/internal/metrics"
	"p2pmss/internal/obs"
	"p2pmss/internal/span"
	"p2pmss/internal/trace"
)

// Every observer attached through Obs must see the run, for every
// protocol.
func TestObsBundleObserves(t *testing.T) {
	for _, proto := range Protocols {
		cfg := metricsTestConfig()
		cfg.Obs = obs.Observability{
			Metrics: metrics.New(),
			Trace:   trace.New(1 << 16),
			Spans:   span.NewCollector(),
			Flight:  flight.NewSet(64),
		}
		if _, err := Run(proto, cfg); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if len(cfg.Obs.Metrics.Snapshot().Counters) == 0 {
			t.Errorf("%s: registry recorded nothing", proto)
		}
		if len(cfg.Obs.Spans.Spans()) == 0 {
			t.Errorf("%s: collector recorded no spans", proto)
		}
		if len(cfg.Obs.Trace.Events()) == 0 {
			t.Errorf("%s: tracer recorded nothing", proto)
		}
		if (proto == DCoP || proto == TCoP) && len(cfg.Obs.Flight.Events()) == 0 {
			t.Errorf("%s: flight set recorded nothing", proto)
		}
	}
}

// Obs.SpanTrace labels the collected spans; zero derives the trace ID
// from the seed.
func TestObsSpanTrace(t *testing.T) {
	cfg := metricsTestConfig()
	explicit := span.DeriveTrace("obs-test")
	for _, tc := range []struct{ set, want span.TraceID }{
		{explicit, explicit},
		{0, span.DeriveTrace(fmt.Sprintf("coord/seed=%d", cfg.Seed))},
	} {
		cfg.Obs.Spans, cfg.Obs.SpanTrace = span.NewCollector(), tc.set
		if _, err := Run(DCoP, cfg); err != nil {
			t.Fatal(err)
		}
		spans := cfg.Obs.Spans.Spans()
		if len(spans) == 0 {
			t.Fatal("no spans collected")
		}
		for _, s := range spans {
			if s.Trace != tc.want {
				t.Fatalf("span trace %v, want %v", s.Trace, tc.want)
			}
		}
	}
}
