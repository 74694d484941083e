package coord

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"p2pmss/internal/engine"
	"p2pmss/internal/flight"
	"p2pmss/internal/metrics"
	"p2pmss/internal/overlay"
	"p2pmss/internal/span"
)

// observerGoldenConfig is a seeded churn run on a lossy data plane with
// leaf repair: three peers crash mid-handshake, a fourth crashes early
// and rejoins, and failed sends pull alternates with up to two retry
// waves. It is the one
// configuration whose spans and flight records go through the
// SendFailed feedback branch of the driver, which no pinned figure
// output reaches (no figure crashes a peer).
func observerGoldenConfig() Config {
	cfg := churnConfig(3)
	cfg.DataPlane = true
	cfg.Loop = false
	cfg.TrackDelivery = true
	cfg.ContentLen = 120
	cfg.Repair = true
	cfg.LossProb = 0.1
	cfg.CrashPeers = []overlay.PeerID{2, 5, 9}
	cfg.CrashAt = 2.5
	cfg.Churn = &ChurnSchedule{Events: []ChurnEvent{
		{At: 0.5, Peer: 7},
		{At: 6, Peer: 7, Join: true},
	}}
	return cfg
}

// TestObserverGolden pins, by SHA-256, every span, every flight record
// and the metrics snapshot of one seeded DCoP and one seeded TCoP churn
// run with all three observers on: a change to what the peers'
// engine.Observer derives, or to the driver notes beside it, moves them.
// The run is lossy, so a change to the links' loss verdicts moves them
// too.
func TestObserverGolden(t *testing.T) {
	want := map[Protocol]struct{ spans, flight, metrics string }{
		DCoP: {"c0d7a58e01a9ea39", "1dda5ec06b090a95", "1f40b3fc5ce32237"},
		TCoP: {"ac7f8af1c8e60264", "5c31fc7a22343bb5", "d7bcecb2647e7710"},
	}
	for _, proto := range []Protocol{DCoP, TCoP} {
		cfg := observerGoldenConfig()
		cfg.Obs = engine.Observability{
			Metrics: metrics.New(),
			Spans:   span.NewCollector(),
			Flight:  flight.NewSet(1 << 14),
		}
		if _, err := Run(proto, cfg); err != nil {
			t.Fatal(err)
		}
		events := cfg.Obs.Flight.Events()
		if cfg.Obs.Flight.Evicted() != 0 {
			t.Fatalf("%s: flight ring too small", proto)
		}
		failed := 0
		for _, e := range events {
			if strings.HasPrefix(e.Type, "send_failed") {
				failed++
			}
		}
		if failed == 0 {
			t.Fatalf("%s: no SendFailed event; the run misses the feedback branch", proto)
		}
		var sb, fb, mb bytes.Buffer
		if err := span.WriteJSONL(&sb, cfg.Obs.Spans.Spans()); err != nil {
			t.Fatal(err)
		}
		if err := flight.WriteJSONL(&fb, events); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Obs.Metrics.WritePrometheus(&mb); err != nil {
			t.Fatal(err)
		}
		got := struct{ spans, flight, metrics string }{digest(sb.Bytes()), digest(fb.Bytes()), digest(mb.Bytes())}
		if got != want[proto] {
			t.Errorf("%s (%d send_failed records):\n got %+v\nwant %+v", proto, failed, got, want[proto])
		}
	}
}

func digest(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b))[:16] }
