package engine

import (
	"p2pmss/internal/flight"
	"p2pmss/internal/metrics"
	"p2pmss/internal/span"
)

// Observability bundles every optional observer a run can attach. Both
// drivers take it as their config's Obs field, so a caller can hand one
// bundle to either; it lives here because the engine is the one package
// both drivers already import and it already imports all three observer
// packages. The zero value attaches nothing. All observers are strictly
// passive: none of them feeds back into protocol behavior, so an
// instrumented run is event-for-event identical to a bare one.
type Observability struct {
	// Metrics, when non-nil, registers and updates the run's counters,
	// gauges and histograms on the registry.
	Metrics *metrics.Registry
	// Spans, when non-nil, collects causal spans (handshake rounds,
	// confirmation waves, commits, hand-offs, streaming, leaf stalls).
	Spans *span.Collector
	// SpanTrace is the trace (session) ID spans are recorded under.
	// Zero lets each runtime derive one (from the seed in the sim,
	// from the session name in the live runtime).
	SpanTrace span.TraceID
	// Flight, when non-nil, records every peer's engine event/effect
	// stream into per-peer flight rings — the one event log both
	// runtimes write, rendered by cmd/msstrace and diffed by
	// flight.FirstDivergence.
	Flight *flight.Set
}
