package main

// metricDef declares one metric the command prints. BENCHMARK.json lists
// the same names, units, directions and bounds; TestBenchmarkJSONMatches
// keeps the two from drifting.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// The "unit" of work differs per workload and is fixed in workloads.go:
// a simulated contents peer (sim_coord), a simulated leaf arrival
// (sim_packet), or a byte-verified content data packet (live_*). An
// "op" is one simulator cycle or one streaming session. Times are bound
// at 0.25 because the builder's VM itself drifts by up to 0.17 between
// runs (README, "Host noise"); allocation counts repeat within 0.03.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"cpu_us_per_unit", "us", "lower", 0.25},
	{"allocs_per_unit", "count", "lower", 0.08},
	{"alloc_kb_per_unit", "KiB", "lower", 0.08},
}

// perLayer metrics come from the traced run; a layer a workload does not
// exercise reports 0 there, which is itself the prediction ("a codec
// change must show nothing on sim_coord").
var perLayer = []metricDef{
	// engine: direct probes (sim_coord).
	{Name: "engine.new_peer_us", Unit: "us", Better: "lower"},
	{Name: "engine.round_us.tcop", Unit: "us", Better: "lower"},
	{Name: "engine.round_us.dcop", Unit: "us", Better: "lower"},
	// coord: spans around Simulate, counts from SimResult.
	{Name: "coord.run_ms.dcop_n100", Unit: "ms", Better: "lower"},
	{Name: "coord.run_ms.tcop_n100", Unit: "ms", Better: "lower"},
	{Name: "coord.run_ms.dcop_n10k", Unit: "ms", Better: "lower"},
	{Name: "coord.run_ms.tcop_n10k", Unit: "ms", Better: "lower"},
	{Name: "coord.us_per_ctl_pkt", Unit: "us", Better: "lower"},
	{Name: "coord.rounds.dcop", Unit: "count", Better: "lower"},
	{Name: "coord.rounds.tcop", Unit: "count", Better: "lower"},
	{Name: "coord.ctl_pkts.dcop", Unit: "count", Better: "lower"},
	{Name: "coord.ctl_pkts.tcop", Unit: "count", Better: "lower"},
	{Name: "coord.us_per_leaf_pkt", Unit: "us", Better: "lower"},
	{Name: "coord.receipt_rate.dcop", Unit: "ratio", Better: "lower"},
	{Name: "coord.receipt_rate.tcop", Unit: "ratio", Better: "lower"},
	// direct probes on the Figure-12 sequence (sim_packet).
	{Name: "des.event_ns", Unit: "ns", Better: "lower"},
	{Name: "seq.union_us", Unit: "us", Better: "lower"},
	{Name: "seq.divide_us", Unit: "us", Better: "lower"},
	{Name: "parity.enhance_us", Unit: "us", Better: "lower"},
	{Name: "schedule.allocate_us", Unit: "us", Better: "lower"},
	// transport: wrapper around every node's Endpoint.Send (live_*).
	{Name: "transport.send_calls", Unit: "count", Better: "lower"},
	{Name: "transport.send_busy_s", Unit: "s", Better: "lower"},
	{Name: "transport.send_data_mean_us", Unit: "us", Better: "lower"},
	{Name: "transport.send_data_p95_us", Unit: "us", Better: "lower"},
	{Name: "transport.send_ctl_mean_us", Unit: "us", Better: "lower"},
	{Name: "transport.send_errors", Unit: "count", Better: "lower"},
	{Name: "transport.wire_bytes_per_pkt", Unit: "B", Better: "lower"},
	// transport: direct probes on a captured data message.
	{Name: "transport.encode_data_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.decode_data_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.udp_send_us", Unit: "us", Better: "lower"},
	{Name: "transport.fabric_send_ns", Unit: "ns", Better: "lower"},
	// transport: probe messages riding the workload's own fabric.
	{Name: "transport.probe_wait_p50_us", Unit: "us", Better: "lower"},
	{Name: "transport.probe_wait_p95_us", Unit: "us", Better: "lower"},
	{Name: "transport.queue_drops", Unit: "count", Better: "lower"},
	{Name: "transport.impair_dropped", Unit: "count", Better: "lower"},
	{Name: "transport.impair_reordered", Unit: "count", Better: "lower"},
	// live: control plane, from the handler wrapper on non-data messages.
	{Name: "live.open_call_p50_us", Unit: "us", Better: "lower"},
	{Name: "live.peer_handle_request_mean_us", Unit: "us", Better: "lower"},
	{Name: "live.peer_handle_control_mean_us", Unit: "us", Better: "lower"},
	{Name: "live.peer_handle_confirm_mean_us", Unit: "us", Better: "lower"},
	{Name: "live.peer_handle_commit_mean_us", Unit: "us", Better: "lower"},
	{Name: "live.peer_handle_repair_mean_us", Unit: "us", Better: "lower"},
	{Name: "live.peer_busy_s", Unit: "s", Better: "lower"},
	{Name: "live.control_commit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "live.control_commit_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "live.request_per_session", Unit: "count", Better: "lower"},
	{Name: "live.control_per_session", Unit: "count", Better: "lower"},
	{Name: "live.confirm_per_session", Unit: "count", Better: "lower"},
	{Name: "live.commit_per_session", Unit: "count", Better: "lower"},
	{Name: "live.repair_per_session", Unit: "count", Better: "lower"},
	{Name: "live.active_peers_per_session", Unit: "count", Better: "lower"},
	// live: data plane, from the handler wrapper on data messages.
	{Name: "live.leaf_handle_data_mean_us", Unit: "us", Better: "lower"},
	{Name: "live.leaf_handle_data_p95_us", Unit: "us", Better: "lower"},
	{Name: "live.leaf_busy_s", Unit: "s", Better: "lower"},
	{Name: "content.assemble_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "parity.recover_us_per_seg", Unit: "us", Better: "lower"},
	{Name: "live.leaf_useful_ratio", Unit: "ratio", Better: "higher"},
	{Name: "live.leaf_dup_share", Unit: "ratio", Better: "lower"},
	{Name: "live.leaf_recovered_share", Unit: "ratio", Better: "lower"},
	{Name: "live.receipt_rate_ratio", Unit: "ratio", Better: "higher"},
	{Name: "live.data_per_session", Unit: "count", Better: "lower"},
	// live: what a viewer feels; diagnostics because they mean nothing
	// on the sim workloads or are bimodal under repair (see README).
	{Name: "live.ttfp_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "live.ttfp_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "live.ttfp_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "live.session_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "live.session_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "live.goodput_mbps", Unit: "Mbit/s", Better: "higher"},
	// validity checks, not targets.
	{Name: "gen.late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "host.calib_ns", Unit: "ns", Better: "lower"},
	{Name: "host.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// value is one measured metric as the driver's contract spells it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single-workload run prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// fill turns measured numbers into the declared metric set: every
// declared name is present (0 when the workload did not produce it), and
// nothing undeclared leaks out.
func fill(defs []metricDef, got map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: got[d.Name], Unit: d.Unit}
	}
	return out
}
