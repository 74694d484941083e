package live

import (
	"testing"
	"time"

	"p2pmss/internal/content"
	"p2pmss/internal/engine"
	"p2pmss/internal/flight"
	"p2pmss/internal/metrics"
	"p2pmss/internal/span"
	"p2pmss/internal/transport"
)

// A session configured through the Obs bundle must stream to completion
// with every observer live: the registry fills with counters, the
// collector with spans, and the flight set with per-peer engine events.
func TestSessionObsBundle(t *testing.T) {
	data := randomData(5000, 47)
	o := engine.Observability{
		Metrics: metrics.New(),
		Spans:   span.NewCollector(),
		Flight:  flight.NewSet(256),
	}
	_, ls := startSession(t, NodesConfig{H: 3, Interval: 2, Seed: 3, Obs: o}, 6, data,
		SessionConfig{PacketSize: 64, Rate: 400})
	waitExact(t, ls, data, 20*time.Second)
	if snap := o.Metrics.Snapshot(); len(snap.Counters) == 0 {
		t.Error("Obs.Metrics recorded nothing")
	}
	if len(o.Spans.Spans()) == 0 {
		t.Error("Obs.Spans recorded nothing")
	}
	if len(o.Flight.Events()) == 0 {
		t.Error("Obs.Flight recorded nothing")
	}
}

// Nodes given Obs.Flight (a whole set) resolve each serving peer's own
// per-(session, roster-index) recorder at start — the set ends up with
// events from every peer without any caller-side Recorder plumbing.
func TestPeerObsFlightResolution(t *testing.T) {
	data := randomData(2000, 48)
	set := flight.NewSet(256)
	_, leafNode := hostNodes(t, 5, storeOf(content.New("movie", data, 64)), NodeConfig{
		H: 3, Interval: 2, Delta: 5 * time.Millisecond, Seed: 1, Obs: engine.Observability{Flight: set},
	}, onFabric(transport.NewFabric()))
	leaf := open(t, leafNode, movieSession(data, 64, 99))
	if err := leaf.Wait(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	events := set.Events()
	if len(events) == 0 {
		t.Fatal("Obs.Flight recorded nothing")
	}
	recorded := make(map[int]bool)
	for _, e := range events {
		if e.Session != string(leaf.ID) {
			t.Fatalf("event of session %q recorded, want %q", e.Session, leaf.ID)
		}
		recorded[e.Peer] = true
	}
	// The leaf selects H=3 of 5 peers; at minimum those participated and
	// must have resolved distinct recorders from the shared set.
	if len(recorded) < 3 {
		t.Fatalf("events from %d peers, want >= 3 (got %v)", len(recorded), recorded)
	}
}
