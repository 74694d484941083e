package coord

import (
	"p2pmss/internal/engine"
	"p2pmss/internal/metrics"
)

// coordMetrics holds the runner's instrument handles, looked up once at
// construction so the data plane pays one atomic per event. The zero
// value (all nil) is the disabled state: every increment no-ops, which
// is what a run without Config.Metrics uses.
type coordMetrics struct {
	rounds, syncRounds, activePeers *metrics.Gauge
	activations                     *metrics.Counter
	activationRound                 *metrics.Histogram
	ctl                             map[string]*metrics.Counter
	dataSent                        *metrics.Counter
	arrivalsData, arrivalsParity    *metrics.Counter
	arrivalsDup, overruns           *metrics.Counter
	recovered                       *metrics.Counter
	delivered                       *metrics.Gauge
	underruns                       *metrics.Counter
	// leaf holds the engine leaf's repair counters (by trigger) and its
	// time-to-first-packet and stall histograms.
	leaf engine.LeafMetrics
	// peer holds the coordination-latency histograms (virtual time
	// units) every peer's observer feeds. Its counters stay nil:
	// activations are counted in peerNode.activate, the path the four
	// engine-less baselines share.
	peer engine.PeerMetrics
}

// ctlTypeNames maps every coordination message to its label value.
var ctlTypeNames = []string{
	"request", "control", "confirm", "commit", "state", "prepare", "ack", "start", "ams",
}

// ctlTypeName classifies a coordination message for the by-type counter.
func ctlTypeName(m any) string {
	switch m.(type) {
	case reqMsg:
		return "request"
	case *ctlMsg, ctlMsg:
		return "control"
	case *confirmMsg, confirmMsg:
		return "confirm"
	case *commitMsg, commitMsg:
		return "commit"
	case stateMsg:
		return "state"
	case prepMsg:
		return "prepare"
	case ackMsg:
		return "ack"
	case startMsg:
		return "start"
	case amsMsg:
		return "ams"
	default:
		return "other"
	}
}

// newCoordMetrics builds the handle set on reg. On a nil registry every
// handle is nil (the maps too), so all recording paths collapse to
// no-ops without further branching. The repair counters carry a trigger
// label only in runs with the repair loop (Config.Repair); other runs
// keep the family's one unlabeled series, which stays 0.
func newCoordMetrics(reg *metrics.Registry, repair bool) coordMetrics {
	if reg == nil {
		return coordMetrics{}
	}
	cm := coordMetrics{
		rounds:          reg.Gauge("coord_rounds"),
		syncRounds:      reg.Gauge("coord_sync_rounds"),
		activePeers:     reg.Gauge("coord_active_peers"),
		activations:     reg.Counter("coord_activations_total"),
		activationRound: reg.Histogram("coord_activation_round", []float64{1, 2, 3, 4, 6, 8, 12, 16}),
		ctl:             make(map[string]*metrics.Counter, len(ctlTypeNames)+1),
		dataSent:        reg.Counter("coord_data_packets_sent_total"),
		arrivalsData:    reg.Counter("coord_leaf_arrivals_total", "kind", "data"),
		arrivalsParity:  reg.Counter("coord_leaf_arrivals_total", "kind", "parity"),
		arrivalsDup:     reg.Counter("coord_leaf_arrivals_total", "kind", "dup"),
		overruns:        reg.Counter("coord_leaf_overruns_total"),
		recovered:       reg.Counter("coord_leaf_recovered_total"),
		delivered:       reg.Gauge("coord_leaf_delivered_data"),
		underruns:       reg.Counter("coord_playback_underruns_total"),

		peer: engine.PeerMetrics{
			HandshakeRTT:   reg.Histogram("coord_handshake_rtt", []float64{0.5, 1, 2, 4, 8, 16, 32, 64}),
			CommitLatency:  reg.Histogram("coord_control_commit_latency", []float64{0.5, 1, 2, 4, 8, 16, 32, 64}),
			RetryWaveDepth: reg.Histogram("coord_retry_wave_depth", []float64{1, 2, 3, 4, 6, 8}),
		},
		leaf: engine.LeafMetrics{
			TimeToFirstPacket: reg.Histogram("coord_time_to_first_packet", []float64{1, 2, 4, 8, 16, 32, 64, 128}),
			StallDuration:     reg.Histogram("coord_stall_duration", []float64{1, 2, 4, 8, 16, 32, 64}),
		},
	}
	if repair {
		cm.leaf.GapRepairs = reg.Counter("coord_repair_requests_total", "trigger", "gap")
		cm.leaf.TailRepairs = reg.Counter("coord_repair_requests_total", "trigger", "tail")
		cm.leaf.StallRepairs = reg.Counter("coord_repair_requests_total", "trigger", "stall")
	} else {
		reg.Counter("coord_repair_requests_total")
	}
	for _, t := range ctlTypeNames {
		cm.ctl[t] = reg.Counter("coord_control_packets_total", "type", t)
	}
	cm.ctl["other"] = reg.Counter("coord_control_packets_total", "type", "other")
	return cm
}
