package coord

import (
	"fmt"
	"strings"
	"testing"

	"p2pmss/internal/engine"
	"p2pmss/internal/flight"
	"p2pmss/internal/metrics"
	"p2pmss/internal/span"
)

// countTypes tallies a flight log's records per Type.
func countTypes(events []flight.Event) map[string]int {
	out := make(map[string]int)
	for _, e := range events {
		out[e.Type]++
	}
	return out
}

// Every observer attached through Obs must see the run, for every
// protocol. The flight log is the one event record: each active peer's
// track holds its activation, and the control traffic shows as send
// records — written by the engine for DCoP/TCoP, by the driver for the
// four engine-less baselines.
func TestObsBundleObserves(t *testing.T) {
	for _, proto := range Protocols {
		cfg := metricsTestConfig()
		cfg.Obs = engine.Observability{
			Metrics: metrics.New(),
			Spans:   span.NewCollector(),
			Flight:  flight.NewSet(1 << 12),
		}
		res, err := Run(proto, cfg)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if len(cfg.Obs.Metrics.Snapshot().Counters) == 0 {
			t.Errorf("%s: registry recorded nothing", proto)
		}
		if len(cfg.Obs.Spans.Spans()) == 0 {
			t.Errorf("%s: collector recorded no spans", proto)
		}
		activated := make(map[int]bool)
		var sends int64
		for _, e := range cfg.Obs.Flight.Events() {
			if e.Dir != "eff" {
				continue
			}
			if e.Type == "activate" {
				activated[e.Peer] = true
			}
			if strings.HasPrefix(e.Type, "send_") {
				sends++
			}
		}
		if res.ActivePeers == 0 || len(activated) != res.ActivePeers {
			t.Errorf("%s: %d peers have an activate record, %d are active", proto, len(activated), res.ActivePeers)
		}
		if cfg.Obs.Flight.Evicted() != 0 {
			t.Fatalf("%s: ring too small for the count check", proto)
		}
		// The engine's tracks hold what the contents peers sent; the
		// baselines' driver records add the leaf's requests.
		want := res.ControlPackets
		if proto == DCoP || proto == TCoP {
			want -= int64(cfg.H)
		}
		if sends != want {
			t.Errorf("%s: %d send records for %d control packets (want %d)", proto, sends, res.ControlPackets, want)
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
