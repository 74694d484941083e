package engine

import (
	"testing"

	"p2pmss/internal/metrics"
	"p2pmss/internal/overlay"
	"p2pmss/internal/seq"
)

// TestTopologySnapshotDerivesEdgesFromChildren checks the converter's
// core rule: edges come from the parents' committed Children lists,
// never from Outcome.Parent — DCoP peers keep Parent at -1 and
// leaf-rooted TCoP peers point Parent at themselves, so deriving edges
// from Parent would fabricate self-loops and drop DCoP edges entirely.
func TestTopologySnapshotDerivesEdgesFromChildren(t *testing.T) {
	outs := []Outcome{
		{ID: 0, Active: true, Parent: 0, Children: []PeerID{1, 2, 2}, // dup child must not dup the edge
			Assigned: seq.Range(1, 10), Round: 1},
		{ID: 1, Active: true, Parent: -1, Children: []PeerID{3}, // DCoP-style: no recorded parent
			Assigned: seq.Range(11, 15), Round: 2},
		{ID: 2, Active: true, Parent: 0, Assigned: seq.Range(16, 18), Round: 2},
		{ID: 3, Active: false, Parent: -1, Round: 0},
	}
	s := TopologySnapshot(outs, TopologyInfo{
		Protocol:   "DCoP",
		Time:       2.5,
		ContentLen: 20,
		Addr:       func(id PeerID) string { return map[PeerID]string{0: "a0"}[id] },
	})

	if s.Version != overlay.SnapshotVersion || s.Protocol != "DCoP" || s.Time != 2.5 {
		t.Errorf("header = %+v", s)
	}
	wantEdges := []overlay.Edge{{Parent: 0, Child: 1}, {Parent: 0, Child: 2}, {Parent: 1, Child: 3}}
	if len(s.Edges) != len(wantEdges) {
		t.Fatalf("edges %v, want %v", s.Edges, wantEdges)
	}
	for i, e := range wantEdges {
		if s.Edges[i] != e {
			t.Errorf("edge %d = %v, want %v", i, s.Edges[i], e)
		}
	}
	// No self-loop despite peer 0's Parent == 0.
	for _, e := range s.Edges {
		if e.Parent == e.Child {
			t.Errorf("self-loop edge %v", e)
		}
	}
	if s.Nodes[0].Addr != "a0" || s.Nodes[1].Addr != "" {
		t.Errorf("addrs = %q, %q", s.Nodes[0].Addr, s.Nodes[1].Addr)
	}
	// Coverage: active peers cover data 1..18 of 20.
	if want := 18.0 / 20.0; s.Health.Coverage != want {
		t.Errorf("coverage = %v, want %v", s.Health.Coverage, want)
	}
	if s.Health.ActivePeers != 3 || s.Health.Depth != 2 || s.Health.MaxFanout != 3 {
		t.Errorf("health = %+v", s.Health)
	}
	// Every active depth>1 peer has an incoming edge; inactive peer 3
	// never counts.
	if s.Health.OrphanedLeaves != 0 {
		t.Errorf("orphans = %d, want 0", s.Health.OrphanedLeaves)
	}
}

// Coverage counts distinct data packets over the active peers' shares —
// what CountData() of their union used to give — without building the
// union: overlapping shares count once, parity packets and inactive
// peers not at all, and an index beyond the content length (a share off
// the wire can name one) still counts as the one packet it is.
func TestTopologySnapshotCoverageCountsDistinctData(t *testing.T) {
	d := func(k int64) seq.Packet { return seq.NewData(k) }
	par := seq.NewParity([]seq.Packet{d(3), d(4)}, seq.MidPos(3, 4))
	outs := []Outcome{
		{ID: 0, Active: true, Assigned: seq.Sequence{d(1), d(2), d(3), par, d(4)}},
		{ID: 1, Active: true, Assigned: seq.Sequence{d(3), par, d(4), d(5), d(64), d(500)}},
		{ID: 2, Active: true, Assigned: seq.Sequence{d(500)}},
		{ID: 3, Active: false, Assigned: seq.Range(6, 60)},
	}
	var union seq.Sequence
	for _, o := range outs {
		if o.Active {
			union = seq.Union(union, o.Assigned)
		}
	}
	for _, contentLen := range []int{5, 63, 64, 100} {
		s := TopologySnapshot(outs, TopologyInfo{ContentLen: contentLen})
		if want := float64(union.CountData()) / float64(contentLen); s.Health.Coverage != want {
			t.Errorf("ContentLen %d: coverage = %v, want %v (7 distinct data packets)", contentLen, s.Health.Coverage, want)
		}
	}
}

func TestTopologySnapshotZeroContentLen(t *testing.T) {
	outs := []Outcome{{ID: 0, Active: true, Assigned: seq.Range(1, 5), Round: 1}}
	s := TopologySnapshot(outs, TopologyInfo{})
	if s.Health.Coverage != 0 {
		t.Errorf("coverage = %v without a content length, want 0", s.Health.Coverage)
	}
}

func TestPublishTopology(t *testing.T) {
	reg := metrics.New()
	s := overlay.Snapshot{Health: overlay.Health{
		ActivePeers: 7, Depth: 3, MaxFanout: 4, OrphanedLeaves: 1, Coverage: 0.9,
	}}
	PublishTopology(reg, s, "session", "demo")
	snap := reg.Snapshot()
	want := map[string]float64{
		"overlay_depth":           3,
		"overlay_fanout":          4,
		"overlay_orphaned_leaves": 1,
		"overlay_active_peers":    7,
		"overlay_coverage_ratio":  0.9,
	}
	found := 0
	for _, g := range snap.Gauges {
		if v, ok := want[g.Name]; ok {
			found++
			if g.Value != v {
				t.Errorf("%s = %v, want %v", g.Name, g.Value, v)
			}
			if len(g.Labels) == 0 {
				t.Errorf("%s published without the session label", g.Name)
			}
		}
	}
	if found != len(want) {
		t.Errorf("found %d overlay gauges, want %d", found, len(want))
	}
	PublishTopology(nil, s) // nil registry must not panic
}
