package live

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"p2pmss/internal/content"
	"p2pmss/internal/engine"
	"p2pmss/internal/metrics"
	"p2pmss/internal/transport"
)

// TestPeerCountersMatchOutcomes runs a session of each protocol through
// churn — two roster peers down before the leaf starts, so controls to
// them fail and their parents take alternates (TCoP) or re-absorb the
// share (DCoP), and an active peer crashed mid-session — and checks the
// peer counters against the engines' own outcomes: activations, retries
// and fail-overs are folds of the very effects and retry counts the
// outcomes report.
func TestPeerCountersMatchOutcomes(t *testing.T) {
	for _, proto := range []Protocol{engine.TCoP, engine.DCoP} {
		t.Run(string(proto), func(t *testing.T) { testPeerCounters(t, proto) })
	}
}

func testPeerCounters(t *testing.T, proto Protocol) {
	data := randomData(12000, 9)
	reg := metrics.New()
	f := transport.NewFabric()
	c := content.New("movie", data, 64)
	names := []string{"k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8", "k9", "k10", "k11"}
	const H = 3
	peers := make([]*Peer, len(names))
	for i, name := range names {
		p, err := NewPeer(PeerConfig{
			Content: c, Roster: names, H: H, Interval: 2, Protocol: proto,
			Delta:            5 * time.Millisecond,
			HandshakeTimeout: 60 * time.Millisecond,
			Seed:             int64(i) + 1,
			Obs:              engine.Observability{Metrics: reg},
		}, WithFabric(f, name))
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
	}
	defer closeAll(peers)
	leaf, err := NewLeaf(LeafConfig{
		Roster: names, H: H, Interval: 2, Rate: 400,
		ContentSize: len(data), PacketSize: 64,
		RepairAfter: 200 * time.Millisecond,
		Seed:        77,
	}, WithFabric(f, "leaf"))
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()
	peers[4].Close()
	peers[9].Close()
	if err := leaf.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	crashed := false
	for _, p := range peers {
		if p.Active() {
			p.Close()
			crashed = true
			break
		}
	}
	if !crashed {
		t.Fatal("no active peer to crash mid-session")
	}
	if err := leaf.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got, ok := leaf.Bytes(); !ok || !bytes.Equal(got, data) {
		t.Fatal("reassembled bytes differ after churn")
	}
	closeAll(peers)

	// Every peer is stopped; read the outcomes and the counters until two
	// readings agree, so a handler that was mid-dispatch at Close is done.
	peerRole := metrics.Label{Key: "role", Value: "peer"}
	type reading struct{ active, retried, absorbed, acts, retries, failovers, handoffs int64 }
	read := func() reading {
		var r reading
		for _, p := range peers {
			o := p.Outcome()
			if o.Active {
				r.active++
			}
			r.retried += int64(o.Retried)
			r.absorbed += int64(o.Absorbed)
		}
		for _, s := range reg.Snapshot().Counters {
			switch {
			case s.Name == "live_activations_total":
				r.acts += s.Value
			case s.Name == "live_handoffs_total":
				r.handoffs += s.Value
			case s.Name == "live_session_retries_total" && slices.Contains(s.Labels, peerRole):
				r.retries += s.Value
			case s.Name == "live_session_failovers_total" && slices.Contains(s.Labels, peerRole):
				r.failovers += s.Value
			}
		}
		return r
	}
	r := read()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		next := read()
		if next == r {
			break
		}
		r = next
	}
	if r.acts != r.active {
		t.Errorf("live_activations_total = %d, %d peers active", r.acts, r.active)
	}
	if r.retries != r.retried {
		t.Errorf("peer retries counter = %d, outcomes retried %d", r.retries, r.retried)
	}
	if r.failovers != r.absorbed {
		t.Errorf("peer failovers counter = %d, outcomes absorbed %d", r.failovers, r.absorbed)
	}
	if r.handoffs == 0 {
		t.Error("live_handoffs_total = 0; no hand-off was counted")
	}
	if r.retried+r.absorbed == 0 {
		t.Error("no peer retried or re-absorbed: the down peers were never contacted")
	}
}
