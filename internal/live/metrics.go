package live

import (
	"p2pmss/internal/engine"
	"p2pmss/internal/metrics"
)

// peerMetrics holds a contents peer's instrument handles, the engine
// observer's among them (activations, hand-offs, retries, fail-overs
// and the coordination-latency histograms, in seconds), looked up once
// at construction. The zero value (all nil) records nothing, which is
// what a peer of a node without Obs.Metrics uses.
type peerMetrics struct {
	engine.PeerMetrics
	// sent is labeled by peer address so per-peer transmit load is
	// visible on /metrics; the rest aggregate per session.
	sent         *metrics.Counter
	repairServed *metrics.Counter
	// unsentNoEndpoint and unsentError count streamed packets whose send
	// failed, labeled like sent: to an address with no endpoint (the leaf
	// has gone), or for any other reason. One series, told apart by
	// reason.
	unsentNoEndpoint *metrics.Counter
	unsentError      *metrics.Counter
	// decodeErrors counts well-framed messages whose body failed
	// DecodeWire and was dropped; invalidBodies those whose body decoded
	// but asks for something that does not exist (a request for part 5
	// of 2). One series, told apart by reason.
	decodeErrors  *metrics.Counter
	invalidBodies *metrics.Counter
}

// latencyBounds are the wall-clock histogram buckets (seconds) shared
// by the live coordination-latency series.
var latencyBounds = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// newPeerMetrics looks up a serving peer's series; each is labeled with
// its session, after its own labels.
func newPeerMetrics(reg *metrics.Registry, addr string, sid SessionID) peerMetrics {
	s := string(sid)
	return peerMetrics{
		PeerMetrics: engine.PeerMetrics{
			Activations:    reg.Counter("live_activations_total", "session", s),
			Handoffs:       reg.Counter("live_handoffs_total", "session", s),
			Failovers:      reg.Counter("live_session_failovers_total", "role", "peer", "session", s),
			Retries:        reg.Counter("live_session_retries_total", "role", "peer", "session", s),
			HandshakeRTT:   reg.Histogram("live_handshake_rtt_seconds", latencyBounds, "session", s),
			CommitLatency:  reg.Histogram("live_control_commit_latency_seconds", latencyBounds, "session", s),
			RetryWaveDepth: reg.Histogram("live_retry_wave_depth", []float64{1, 2, 3, 4, 6, 8}, "session", s),
		},
		sent:             reg.Counter("live_data_packets_sent_total", "peer", addr, "session", s),
		repairServed:     reg.Counter("live_repair_packets_served_total", "session", s),
		unsentNoEndpoint: reg.Counter("live_data_packets_unsent_total", "peer", addr, "reason", "no_endpoint", "session", s),
		unsentError:      reg.Counter("live_data_packets_unsent_total", "peer", addr, "reason", "error", "session", s),
		decodeErrors:     reg.Counter("live_body_decode_errors_total", "role", "peer", "reason", "decode", "session", s),
		invalidBodies:    reg.Counter("live_body_decode_errors_total", "role", "peer", "reason", "invalid", "session", s),
	}
}

// leafMetrics holds the leaf's instrument handles, the engine leaf's
// among them; same nil-is-disabled convention as peerMetrics.
// decodeErrors counts data messages whose body failed DecodeWire.
type leafMetrics struct {
	engine.LeafMetrics
	arrivals, dups, decodeErrors *metrics.Counter
	delivered, recovered         *metrics.Gauge
}

func newLeafMetrics(reg *metrics.Registry, sid SessionID) leafMetrics {
	s := string(sid)
	return leafMetrics{
		LeafMetrics: engine.LeafMetrics{
			GapRepairs:        reg.Counter("live_repair_requests_total", "trigger", "gap", "session", s),
			TailRepairs:       reg.Counter("live_repair_requests_total", "trigger", "tail", "session", s),
			StallRepairs:      reg.Counter("live_repair_requests_total", "trigger", "stall", "session", s),
			Retries:           reg.Counter("live_session_retries_total", "role", "leaf", "session", s),
			Failovers:         reg.Counter("live_session_failovers_total", "role", "leaf", "session", s),
			TimeToFirstPacket: reg.Histogram("live_time_to_first_packet_seconds", latencyBounds, "session", s),
			StallDuration:     reg.Histogram("live_stall_duration_seconds", latencyBounds, "session", s),
		},
		arrivals:     reg.Counter("live_leaf_arrivals_total", "session", s),
		dups:         reg.Counter("live_leaf_duplicates_total", "session", s),
		decodeErrors: reg.Counter("live_body_decode_errors_total", "role", "leaf", "reason", "decode", "session", s),
		delivered:    reg.Gauge("live_leaf_delivered_packets", "session", s),
		recovered:    reg.Gauge("live_leaf_recovered_packets", "session", s),
	}
}

// nodeMetrics instruments a Node's session multiplexing.
type nodeMetrics struct {
	servingSessions *metrics.Gauge
	leafSessions    *metrics.Gauge
	// servingReaped/leafReaped count idle sessions torn down by the
	// node's reaper (finished leaves; quiesced serving peers).
	servingReaped *metrics.Counter
	leafReaped    *metrics.Counter
	// admissionRejected counts sessions refused by the MaxSessions
	// budget (dropped requests and failed Opens).
	admissionRejected *metrics.Counter
}

func newNodeMetrics(reg *metrics.Registry, addr string) nodeMetrics {
	return nodeMetrics{
		servingSessions:   reg.Gauge("live_node_sessions_active", "node", addr, "role", "peer"),
		leafSessions:      reg.Gauge("live_node_sessions_active", "node", addr, "role", "leaf"),
		servingReaped:     reg.Counter("live_node_sessions_reaped_total", "node", addr, "role", "peer"),
		leafReaped:        reg.Counter("live_node_sessions_reaped_total", "node", addr, "role", "leaf"),
		admissionRejected: reg.Counter("live_node_admission_rejected_total", "node", addr),
	}
}
