package engine

import (
	"p2pmss/internal/metrics"
	"p2pmss/internal/overlay"
	"p2pmss/internal/seq"
)

// TopologyInfo labels a topology snapshot with run context.
type TopologyInfo struct {
	// Protocol is the run's protocol name ("TCoP", "DCoP", ...).
	Protocol string
	// Session labels the streaming session on multi-session nodes.
	Session string
	// Time is the capturing driver's clock at snapshot time.
	Time float64
	// ContentLen is the content length in data packets; zero leaves the
	// coverage ratio at 0 (control-plane-only runs).
	ContentLen int
	// Addr maps a peer id to its transport address (nil in the
	// simulator).
	Addr func(id PeerID) string
}

// TopologySnapshot walks per-peer coordination outcomes into a
// versioned overlay snapshot: slot assignments, the hand-off edges,
// per-peer role/depth, and the tree-health summary including the
// division coverage ratio. Edges derive from the parents' Children
// lists — the committed hand-offs — never from Outcome.Parent, which
// DCoP peers leave at -1 and leaf-rooted TCoP peers point at
// themselves.
func TopologySnapshot(outs []Outcome, info TopologyInfo) overlay.Snapshot {
	s := overlay.Snapshot{
		Version:  overlay.SnapshotVersion,
		Protocol: info.Protocol,
		Session:  info.Session,
		Time:     info.Time,
	}
	var cover *dataCounter // nil: no content length to take a ratio of
	if info.ContentLen > 0 {
		cover = &dataCounter{bits: make([]uint64, info.ContentLen/64+1)}
	}
	for _, o := range outs {
		assigned := o.Assigned()
		n := overlay.Node{
			ID:        int(o.ID),
			Active:    o.Active,
			Committed: o.Committed,
			Parent:    o.Parent,
			Depth:     o.Round,
			Assigned:  len(assigned),
			Covered:   assigned.CountData(),
			Retried:   o.Retried,
			Absorbed:  o.Absorbed,
		}
		if info.Addr != nil {
			n.Addr = info.Addr(o.ID)
		}
		seen := make(map[PeerID]bool, len(o.Children))
		for _, c := range o.Children {
			n.Children = append(n.Children, int(c))
			if !seen[c] {
				seen[c] = true
				s.Edges = append(s.Edges, overlay.Edge{Parent: int(o.ID), Child: int(c)})
			}
		}
		s.Nodes = append(s.Nodes, n)
		if o.Active && cover != nil {
			cover.add(assigned)
		}
	}
	s.ComputeHealth()
	if cover != nil {
		s.Health.Coverage = float64(cover.n) / float64(info.ContentLen)
	}
	return s
}

// dataCounter counts the distinct content data packets of the sequences
// added to it: a bitmap over the indices 0..64·len(bits)−1, and a map
// for any index outside it (a share decoded from the wire can name one).
type dataCounter struct {
	bits  []uint64
	extra map[int64]struct{}
	n     int
}

func (c *dataCounter) add(s seq.Sequence) {
	for i := range s {
		if !s[i].IsData() {
			continue
		}
		k := s[i].Index
		if k >= 0 && k < int64(len(c.bits))*64 {
			if w, b := k/64, uint64(1)<<(k%64); c.bits[w]&b == 0 {
				c.bits[w] |= b
				c.n++
			}
			continue
		}
		if _, seen := c.extra[k]; !seen {
			if c.extra == nil {
				c.extra = make(map[int64]struct{})
			}
			c.extra[k] = struct{}{}
			c.n++
		}
	}
}

// PublishTopology writes a snapshot's tree-health gauges into the
// registry: overlay_depth, overlay_fanout, overlay_orphaned_leaves,
// overlay_active_peers and overlay_coverage_ratio, labeled with the
// given label pairs (typically session="..."). A nil registry is a
// no-op.
func PublishTopology(reg *metrics.Registry, s overlay.Snapshot, labels ...string) {
	if reg == nil {
		return
	}
	reg.Gauge("overlay_depth", labels...).Set(float64(s.Health.Depth))
	reg.Gauge("overlay_fanout", labels...).Set(float64(s.Health.MaxFanout))
	reg.Gauge("overlay_orphaned_leaves", labels...).Set(float64(s.Health.OrphanedLeaves))
	reg.Gauge("overlay_active_peers", labels...).Set(float64(s.Health.ActivePeers))
	reg.Gauge("overlay_coverage_ratio", labels...).Set(s.Health.Coverage)
}
