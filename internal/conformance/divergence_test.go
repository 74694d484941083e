package conformance_test

import (
	"strings"
	"testing"

	"p2pmss/internal/engine"
	"p2pmss/internal/flight"
)

// TestFirstDivergenceOnAgreeingRuns is the control: a sim run and its
// live twin from the same seed must produce flight logs with no
// divergence — otherwise the divergence reporter would cry wolf on
// every conformance failure.
func TestFirstDivergenceOnAgreeingRuns(t *testing.T) {
	for _, proto := range []engine.Protocol{engine.TCoP, engine.DCoP} {
		simFl, liveFl := flight.NewSet(0), flight.NewSet(0)
		simOutcomes(t, proto, 1, simFl)
		liveOutcomes(t, proto, 1, liveFl)
		if len(simFl.Events()) == 0 || len(liveFl.Events()) == 0 {
			t.Fatalf("%s: empty flight log (sim %d, live %d events) — comparison is vacuous",
				proto, len(simFl.Events()), len(liveFl.Events()))
		}
		d := flight.FirstDivergence(
			flight.Log{Label: "sim", Events: simFl.Events()},
			liveLog(liveFl),
			flight.DiffOptions{},
		)
		if d != nil {
			t.Errorf("%s: conformant drivers reported divergent:\n%s", proto, d)
		}
	}
}

// TestFirstDivergenceNamesOffendingPeer feeds the reporter a known-
// divergent pair — a sim run against a live run from a different seed,
// so their coordination unfolds differently by construction — and
// requires a report naming the offending peer, the event type, and both
// sides' timestamps (virtual time on the sim track, wall time on the
// live track). This is the fixture the CI divergence job runs.
func TestFirstDivergenceNamesOffendingPeer(t *testing.T) {
	simFl, liveFl := flight.NewSet(0), flight.NewSet(0)
	simOutcomes(t, engine.TCoP, 1, simFl)
	liveOutcomes(t, engine.TCoP, 2, liveFl)

	d := flight.FirstDivergence(
		flight.Log{Label: "sim", Events: simFl.Events()},
		liveLog(liveFl),
		flight.DiffOptions{},
	)
	if d == nil {
		t.Fatal("different-seed runs reported conformant — the divergence reporter is blind")
	}
	if d.Peer < 0 || d.Peer >= confN {
		t.Errorf("divergence names peer %d, outside the population 0..%d", d.Peer, confN-1)
	}
	if d.A == nil && d.B == nil {
		t.Fatal("divergence carries neither side's event")
	}
	report := d.String()
	for _, want := range []string{"first divergence", "peer", "sim", "live", "t="} {
		if !strings.Contains(report, want) {
			t.Errorf("report %q missing %q", report, want)
		}
	}
	// Whichever side's event exists must carry a concrete type; the
	// timestamps are rendered by String (checked via "t=" above).
	if d.A != nil && d.A.Type == "" {
		t.Error("sim-side event has no type")
	}
	if d.B != nil && d.B.Type == "" {
		t.Error("live-side event has no type")
	}
	t.Logf("divergence fixture report:\n%s", report)
}
