package live

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"

	"p2pmss/internal/engine"
	"p2pmss/internal/flight"
	"p2pmss/internal/metrics"
	"p2pmss/internal/overlay"
)

// This file is the live layer's introspection surface: topology
// snapshots built from the peers' engine outcomes, flight-log access,
// the /debug/overlay and /debug/flight handlers mounted on
// metrics.DebugMux, and the automatic dump a stalled Leaf.Wait
// triggers.

// healthLine renders a snapshot's health as one line, naming orphans.
func healthLine(s overlay.Snapshot) string {
	var orphans []string
	hasParent := make(map[int]bool, len(s.Edges))
	for _, e := range s.Edges {
		hasParent[e.Child] = true
	}
	for _, n := range s.Nodes {
		if n.Active && n.Depth > 1 && !hasParent[n.ID] {
			orphans = append(orphans, fmt.Sprintf("cp%d", n.ID))
		}
	}
	line := fmt.Sprintf("overlay: active=%d/%d depth=%d fanout=%d orphans=%d coverage=%.2f",
		s.Health.ActivePeers, len(s.Nodes), s.Health.Depth, s.Health.MaxFanout,
		s.Health.OrphanedLeaves, s.Health.Coverage)
	if len(orphans) > 0 {
		line += " (" + strings.Join(orphans, ",") + ")"
	}
	return line
}

// dumpIntrospection writes the snapshot and flight log to temp files,
// returning a "path, path" description (or "" when nothing could be
// written — introspection must never turn a timeout into a crash).
func dumpIntrospection(s overlay.Snapshot, fl *flight.Set) string {
	var parts []string
	if f, err := os.CreateTemp("", "p2pmss-overlay-*.json"); err == nil {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if enc.Encode(s) == nil {
			parts = append(parts, "overlay "+f.Name())
		}
		f.Close()
	}
	if fl != nil {
		if f, err := os.CreateTemp("", "p2pmss-flight-*.jsonl"); err == nil {
			if fl.DumpJSONL(f) == nil {
				parts = append(parts, "flight "+f.Name())
			}
			f.Close()
		}
	}
	return strings.Join(parts, ", ")
}

// serveOverlay writes a snapshot as indented JSON, or as Graphviz DOT
// when the request asks for ?format=dot.
func serveOverlay(w http.ResponseWriter, r *http.Request, s overlay.Snapshot) {
	if r.URL.Query().Get("format") == "dot" {
		w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
		fmt.Fprint(w, s.DOT()) //nolint:errcheck // client went away
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s) //nolint:errcheck // client went away
}

// serveFlight writes a flight set as JSONL, optionally filtered by
// ?session= and ?peer=.
func serveFlight(w http.ResponseWriter, r *http.Request, fl *flight.Set) {
	if fl == nil {
		http.Error(w, "flight recording disabled (set Obs.Flight on the nodes config)", http.StatusNotFound)
		return
	}
	events := fl.Events()
	q := r.URL.Query()
	if sess := q.Get("session"); sess != "" {
		events = filterEvents(events, func(e flight.Event) bool { return e.Session == sess })
	}
	if peer := q.Get("peer"); peer != "" {
		events = filterEvents(events, func(e flight.Event) bool { return fmt.Sprint(e.Peer) == peer })
	}
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	flight.WriteJSONL(w, events) //nolint:errcheck // client went away
}

func filterEvents(events []flight.Event, keep func(flight.Event) bool) []flight.Event {
	out := events[:0:0]
	for _, e := range events {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// Sessions lists every session any node currently serves, sorted.
func (nc *NodeCluster) Sessions() []SessionID {
	seen := make(map[SessionID]bool)
	for _, nd := range nc.Nodes {
		for sid := range nd.Serving() {
			seen[sid] = true
		}
	}
	out := make([]SessionID, 0, len(seen))
	for sid := range seen {
		out = append(out, sid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Snapshot builds the topology of one session across the node
// population from the serving peers' engine outcomes (slot assignments,
// hand-off edges, per-peer role/depth, tree health), and refreshes the
// session's overlay_* gauges when the population is instrumented. It is
// safe mid-run — peer state is mutex-guarded. Nodes that never served
// the session, or whose serving state was reaped or closed, contribute
// nothing.
func (nc *NodeCluster) Snapshot(sid SessionID) overlay.Snapshot {
	var outs []engine.Outcome
	var roster []string
	contentLen := 0
	for _, nd := range nc.Nodes {
		p, ok := nd.Serving()[sid]
		if !ok {
			continue
		}
		outs = append(outs, p.Outcome())
		// Engine peer ids are positions in the session's roster — which,
		// under discovery, is the resolved serving subset, not the
		// node-population order.
		roster = p.roster
		p.mu.Lock()
		if p.content != nil {
			contentLen = int(p.content.NumPackets())
		}
		p.mu.Unlock()
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i].ID < outs[j].ID })
	s := engine.TopologySnapshot(outs, engine.TopologyInfo{
		Protocol:   nc.protoName(),
		Session:    string(sid),
		Time:       liveNow(),
		ContentLen: contentLen,
		Addr: func(id engine.PeerID) string {
			if id >= 0 && int(id) < len(roster) {
				return roster[id]
			}
			return ""
		},
	})
	engine.PublishTopology(nc.obs.Metrics, s, "session", string(sid))
	return s
}

// introspect is the Leaf.Wait timeout hook: it dumps the session's
// topology snapshot (JSON) and the flight log (JSONL) to temp files and
// returns a one-line diagnosis naming them plus the tree-health summary,
// so a stalled session's error already points at the forensics.
func (nc *NodeCluster) introspect(sid SessionID) string {
	s := nc.Snapshot(sid)
	summary := healthLine(s)
	if paths := dumpIntrospection(s, nc.obs.Flight); paths != "" {
		return summary + "; dumped " + paths
	}
	return summary
}

// Directory renders every node's directory view: a JSON object keyed by
// node address, listing the records (discovery) or the static roster.
func (nc *NodeCluster) Directory() map[string]any {
	out := make(map[string]any, len(nc.Nodes))
	for _, nd := range nc.Nodes {
		rt := nd.runtime()
		if rt.catalog != nil {
			out[nd.Addr()] = rt.catalog.Records()
		} else {
			out[nd.Addr()] = rt.dir.Roster()
		}
	}
	return out
}

// protoName returns the population's protocol label.
func (nc *NodeCluster) protoName() string {
	if len(nc.Nodes) > 0 && nc.Nodes[0].cfg.Protocol != "" {
		return string(nc.Nodes[0].cfg.Protocol)
	}
	return ""
}

// DebugHandlers returns the population's extra debug endpoints, ready
// to mount on metrics.DebugMux:
//
//	/debug/overlay  all sessions' topologies as a JSON object keyed by
//	                session id; ?session=S narrows to one (with
//	                ?format=dot for Graphviz)
//	/debug/flight   flight log (JSONL; ?session= and ?peer= filter)
//	/debug/directory  every node's directory view (JSON keyed by node)
func (nc *NodeCluster) DebugHandlers() []metrics.DebugHandler {
	return []metrics.DebugHandler{
		{Pattern: "/debug/directory", Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(nc.Directory()) //nolint:errcheck // client went away
		})},
		{Pattern: "/debug/overlay", Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if sid := r.URL.Query().Get("session"); sid != "" {
				serveOverlay(w, r, nc.Snapshot(SessionID(sid)))
				return
			}
			all := make(map[string]overlay.Snapshot)
			for _, sid := range nc.Sessions() {
				all[string(sid)] = nc.Snapshot(sid)
			}
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(all) //nolint:errcheck // client went away
		})},
		{Pattern: "/debug/flight", Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			serveFlight(w, r, nc.obs.Flight)
		})},
	}
}
