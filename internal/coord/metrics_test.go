package coord

import (
	"reflect"
	"testing"

	"p2pmss/internal/engine"
	"p2pmss/internal/flight"
	"p2pmss/internal/metrics"
	"p2pmss/internal/overlay"
	"p2pmss/internal/span"
)

// metricsTestConfig is a small data-plane run exercising most counters.
func metricsTestConfig() Config {
	cfg := DefaultConfig()
	cfg.N = 24
	cfg.H = 6
	cfg.DataPlane = true
	cfg.ContentLen = 400
	cfg.Loop = false
	cfg.Seed = 7
	return cfg
}

// Instrumentation must never perturb the simulation: a run with any
// observer bundle attached — metrics, spans or flight rings alone, or
// all three — produces the identical Result to a bare run.
func TestMetricsDoNotPerturbResult(t *testing.T) {
	bundles := map[string]func() engine.Observability{
		"metrics": func() engine.Observability { return engine.Observability{Metrics: metrics.New()} },
		"spans":   func() engine.Observability { return engine.Observability{Spans: span.NewCollector()} },
		"flight":  func() engine.Observability { return engine.Observability{Flight: flight.NewSet(64)} },
		"all": func() engine.Observability {
			return engine.Observability{Metrics: metrics.New(), Spans: span.NewCollector(), Flight: flight.NewSet(64)}
		},
	}
	for _, proto := range Protocols {
		r1, err := Run(proto, metricsTestConfig())
		if err != nil {
			t.Fatalf("%s bare: %v", proto, err)
		}
		for name, obs := range bundles {
			instr := metricsTestConfig()
			instr.Obs = obs()
			r2, err := Run(proto, instr)
			if err != nil {
				t.Fatalf("%s %s: %v", proto, name, err)
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Errorf("%s: result with %s attached differs from bare:\n%+v\n%+v", proto, name, r1, r2)
			}
		}
	}
}

// A seeded run's metrics snapshot is deterministic: fresh registries on
// identical configs end up byte-for-byte equal.
func TestMetricsSnapshotDeterministic(t *testing.T) {
	run := func() metrics.Snapshot {
		cfg := metricsTestConfig()
		cfg.Repair = true
		cfg.CrashPeers = []overlay.PeerID{1}
		cfg.Obs.Metrics = metrics.New()
		if _, err := Run(DCoP, cfg); err != nil {
			t.Fatal(err)
		}
		return cfg.Obs.Metrics.Snapshot()
	}
	s1, s2 := run(), run()
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("snapshots differ across identical seeded runs:\n%+v\n%+v", s1, s2)
	}
}

// The registry's counters agree with the Result struct they mirror.
func TestMetricsAgreeWithResult(t *testing.T) {
	for _, proto := range []string{DCoP, TCoP} {
		cfg := metricsTestConfig()
		reg := metrics.New()
		cfg.Obs.Metrics = reg
		res, err := Run(proto, cfg)
		if err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		var ctlTotal, sent, activations int64
		var netSent, netDelivered int64
		for _, c := range snap.Counters {
			switch c.Name {
			case "coord_control_packets_total":
				ctlTotal += c.Value
			case "coord_data_packets_sent_total":
				sent = c.Value
			case "coord_activations_total":
				activations = c.Value
			case "simnet_messages_sent_total":
				netSent = c.Value
			case "simnet_messages_delivered_total":
				netDelivered = c.Value
			}
		}
		if ctlTotal != res.ControlPackets {
			t.Errorf("%s: control counter %d != result %d", proto, ctlTotal, res.ControlPackets)
		}
		if activations != int64(res.ActivePeers) {
			t.Errorf("%s: activations %d != active peers %d", proto, activations, res.ActivePeers)
		}
		var peerSent int64
		for _, n := range res.PeerSent {
			peerSent += n
		}
		if sent != peerSent {
			t.Errorf("%s: data sent counter %d != per-peer sum %d", proto, sent, peerSent)
		}
		if netSent != res.NetStats.Sent || netDelivered != res.NetStats.Delivered {
			t.Errorf("%s: simnet counters (%d,%d) != NetStats (%d,%d)",
				proto, netSent, netDelivered, res.NetStats.Sent, res.NetStats.Delivered)
		}
		var delivered float64
		for _, g := range snap.Gauges {
			if g.Name == "coord_leaf_delivered_data" {
				delivered = g.Value
			}
		}
		if int64(delivered) != res.DeliveredData {
			t.Errorf("%s: delivered gauge %v != result %d", proto, delivered, res.DeliveredData)
		}
		if res.DeliveredData == 0 {
			t.Errorf("%s: run delivered nothing; test exercised no counters", proto)
		}
	}
}
