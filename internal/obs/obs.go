// Package obs holds the observability configuration shared by the
// simulated (coord) and live runtimes: one Observability struct is the
// only way to attach a metrics registry, event tracer, span collector or
// flight recorder set to a run, so both runtimes spell it the same way
// and a caller can hand one bundle to either.
package obs

import (
	"p2pmss/internal/flight"
	"p2pmss/internal/metrics"
	"p2pmss/internal/span"
	"p2pmss/internal/trace"
)

// Observability bundles every optional observer a run can attach. The
// zero value attaches nothing. All observers are strictly passive:
// none of them feeds back into protocol behavior, so an instrumented
// run is event-for-event identical to a bare one.
type Observability struct {
	// Metrics, when non-nil, registers and updates the run's counters,
	// gauges and histograms on the registry.
	Metrics *metrics.Registry
	// Trace, when non-nil, records activations, control packets and
	// hand-offs. Simulation only: the live runtime has no virtual
	// clock to stamp trace events with, and ignores it.
	Trace *trace.Tracer
	// Spans, when non-nil, collects causal spans (handshake rounds,
	// confirmation waves, commits, hand-offs, streaming, leaf stalls).
	Spans *span.Collector
	// SpanTrace is the trace (session) ID spans are recorded under.
	// Zero lets each runtime derive one (from the seed in the sim,
	// from the session name in the live runtime).
	SpanTrace span.TraceID
	// Flight, when non-nil, records every peer's engine event/effect
	// stream into per-peer flight rings for topology forensics and
	// sim-vs-live divergence diffing.
	Flight *flight.Set
}
