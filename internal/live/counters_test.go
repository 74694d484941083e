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
	const H = 3
	nodes, leafNode := hostNodes(t, 12, storeOf(content.New("movie", data, 64)), NodeConfig{
		H: H, Interval: 2, Protocol: proto,
		Delta:            5 * time.Millisecond,
		HandshakeTimeout: 60 * time.Millisecond,
		Seed:             1,
		Obs:              engine.Observability{Metrics: reg},
	}, onFabric(transport.NewFabric()))
	nodes[4].Close()
	nodes[9].Close()
	sc := movieSession(data, 64, 77)
	sc.RepairAfter = 200 * time.Millisecond
	leaf := open(t, leafNode, sc)
	time.Sleep(150 * time.Millisecond)
	var crashed *Peer
	for i, p := range servingPeers(nodes, leaf.ID) {
		if p != nil && p.Active() {
			nodes[i].Close()
			crashed = p
			break
		}
	}
	if crashed == nil {
		t.Fatal("no active peer to crash mid-session")
	}
	if err := leaf.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got, ok := leaf.Bytes(); !ok || !bytes.Equal(got, data) {
		t.Fatal("reassembled bytes differ after churn")
	}
	// Serving peers leave the session table when their node closes: take
	// them (and the crashed one) first.
	peers := append(servingPeers(nodes, leaf.ID), crashed)
	for _, nd := range nodes {
		nd.Close()
	}

	// Every peer is stopped; read the outcomes and the counters until two
	// readings agree, so a handler that was mid-dispatch at Close is done.
	peerRole := metrics.Label{Key: "role", Value: "peer"}
	type reading struct{ active, retried, absorbed, acts, retries, failovers, handoffs int64 }
	read := func() reading {
		var r reading
		for _, p := range peers {
			if p == nil {
				continue
			}
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
