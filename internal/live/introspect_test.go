package live

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"p2pmss/internal/content"
	"p2pmss/internal/engine"
	"p2pmss/internal/flight"
	"p2pmss/internal/metrics"
	"p2pmss/internal/overlay"
	"p2pmss/internal/transport"
)

// scrapeBody GETs a path from the debug server and returns the body.
func scrapeBody(t *testing.T, base, path string) []byte {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
	}
	return body
}

// sessionOutcomes reads the committed truth of a session: every serving
// peer's engine outcome, in engine-id order (the session runs on a
// startSession population, where node i is engine peer i).
func sessionOutcomes(nc *NodeCluster, sid SessionID) []engine.Outcome {
	var outs []engine.Outcome
	for _, nd := range nc.Nodes {
		if p, ok := nd.Serving()[sid]; ok {
			outs = append(outs, p.Outcome())
		}
	}
	return outs
}

// TestSessionOverlayEdgesMatchOutcomes is the introspection acceptance
// test: a 100-peer live session under 5% injected loss completes, and
// the /debug/overlay snapshot's edges exactly match the edges derived
// from the peers' own committed engine outcomes — the snapshot reports
// the overlay that actually exists, not an approximation of it.
func TestSessionOverlayEdgesMatchOutcomes(t *testing.T) {
	data := make([]byte, 12000)
	for i := range data {
		data[i] = byte(i * 31)
	}
	reg := metrics.New()
	fl := flight.NewSet(0)
	nc, ls := startSession(t, NodesConfig{
		H:         10,
		Interval:  3,
		Impair:    transport.Impairment{Seed: 424, Loss: 0.05, Reorder: 0.02, ReorderWindow: 4},
		ReapAfter: -1, // the comparison below needs every serving peer still there
		Seed:      424,
		Obs:       engine.Observability{Metrics: reg, Flight: fl},
	}, 100, data, SessionConfig{PacketSize: 128, Rate: 2000, RepairAfter: 250 * time.Millisecond})
	waitExact(t, ls, data, 60*time.Second)

	srv := httptest.NewServer(metrics.DebugMux(reg, nc.DebugHandlers()...))
	defer srv.Close()

	// The peers keep running (closing a node drops its session state), so
	// take the scrape between two reads of the outcomes and retry until
	// both reads agree: late coordination traffic may still be landing.
	var snap overlay.Snapshot
	var outs []engine.Outcome
	deadline := time.Now().Add(10 * time.Second)
	for {
		before := sessionOutcomes(nc, ls.ID)
		if err := json.Unmarshal(scrapeBody(t, srv.URL, "/debug/overlay?session="+url.QueryEscape(string(ls.ID))), &snap); err != nil {
			t.Fatalf("overlay snapshot is not JSON: %v", err)
		}
		outs = sessionOutcomes(nc, ls.ID)
		if reflect.DeepEqual(before, outs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("peer outcomes never settled")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The settled scrape published the overlay gauges; later scrapes (the
	// DOT rendering below) republish whatever coordination has reached by
	// then, so read the registry now.
	ms := reg.Snapshot()
	if snap.Version != overlay.SnapshotVersion || snap.Session != string(ls.ID) || len(snap.Nodes) != len(outs) {
		t.Fatalf("snapshot version=%d session=%q nodes=%d, want %d nodes", snap.Version, snap.Session, len(snap.Nodes), len(outs))
	}

	// Edges derived the same way the snapshotter must derive them
	// (children lists, deduped).
	var wantEdges []overlay.Edge
	active := 0
	for _, o := range outs {
		if o.Active {
			active++
		}
		seen := make(map[int]bool, len(o.Children))
		for _, c := range o.Children {
			if !seen[int(c)] {
				seen[int(c)] = true
				wantEdges = append(wantEdges, overlay.Edge{Parent: int(o.ID), Child: int(c)})
			}
		}
	}
	if active == 0 || len(wantEdges) == 0 {
		t.Fatalf("vacuous run: %d active peers, %d edges", active, len(wantEdges))
	}
	if len(snap.Edges) != len(wantEdges) {
		t.Fatalf("snapshot has %d edges, outcomes commit %d", len(snap.Edges), len(wantEdges))
	}
	for i, e := range wantEdges {
		if snap.Edges[i] != e {
			t.Errorf("edge %d: snapshot %v, outcome %v", i, snap.Edges[i], e)
		}
	}
	if snap.Health.ActivePeers != active {
		t.Errorf("snapshot active=%d, outcomes say %d", snap.Health.ActivePeers, active)
	}
	if snap.Health.Coverage <= 0 || snap.Health.Coverage > 1.0001 {
		t.Errorf("coverage = %v, want (0, 1]", snap.Health.Coverage)
	}

	// DOT rendering of the same snapshot.
	dot := string(scrapeBody(t, srv.URL, "/debug/overlay?format=dot&session="+url.QueryEscape(string(ls.ID))))
	if !strings.HasPrefix(dot, "digraph overlay {") || !strings.Contains(dot, "->") {
		t.Errorf("DOT output malformed:\n%.200s", dot)
	}

	// Flight log served and non-empty.
	flightBody := scrapeBody(t, srv.URL, "/debug/flight")
	events, err := flight.ReadJSONL(strings.NewReader(string(flightBody)))
	if err != nil {
		t.Fatalf("flight body: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("flight endpoint returned no events")
	}

	// The run went through 5% loss: the impairment verdict counters and
	// the overlay gauges must both have landed in the registry.
	var drops int64
	for _, c := range ms.Counters {
		if c.Name == "transport_impaired_total" {
			for _, l := range c.Labels {
				if l.Key == "verdict" && l.Value == "drop" {
					drops += c.Value
				}
			}
		}
	}
	if drops == 0 {
		t.Error("transport_impaired_total{verdict=drop} never incremented under 5% loss")
	}
	foundGauge := false
	for _, g := range ms.Gauges {
		if g.Name == "overlay_active_peers" && g.Value == float64(active) {
			foundGauge = true
		}
	}
	if !foundGauge {
		t.Errorf("overlay_active_peers gauge missing or wrong (want %d)", active)
	}
}

// TestNodeClusterDebugEndpointsUnderChaos scrapes /debug/overlay and
// /debug/flight continuously while 8 concurrent sessions stream and two
// serving nodes crash mid-run — the endpoints must stay consistent and
// race-clean under churn, and the final snapshots must cover every
// session.
func TestNodeClusterDebugEndpointsUnderChaos(t *testing.T) {
	const sessions = 8
	store := content.NewStore()
	data := make(map[string][]byte, sessions)
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("c%d", i)
		b := make([]byte, 16<<10)
		for j := range b {
			b[j] = byte(j*7 + i)
		}
		store.Put(content.New(id, b, 128))
		data[id] = b
	}
	reg := metrics.New()
	fl := flight.NewSet(0)
	nc, err := StartNodes(NodesConfig{
		Nodes:            12,
		Store:            store,
		H:                3,
		Interval:         2,
		Delta:            5 * time.Millisecond,
		HandshakeTimeout: 80 * time.Millisecond,
		Seed:             717,
		Obs:              engine.Observability{Metrics: reg, Flight: fl},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	srv := httptest.NewServer(metrics.DebugMux(reg, nc.DebugHandlers()...))
	defer srv.Close()

	leaves := make([]*LeafSession, sessions)
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("c%d", i)
		ls, err := nc.Open(i, SessionConfig{
			ContentID:   id,
			ContentSize: len(data[id]),
			PacketSize:  128,
			Rate:        600,
			RepairAfter: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("open session %d: %v", i, err)
		}
		leaves[i] = ls
	}

	// Scrapers hammer both endpoints while streams run and nodes crash.
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for g := 0; g < 3; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/debug/overlay", "/debug/flight", "/debug/overlay?session=c0&format=dot"} {
					resp, err := http.Get(srv.URL + path)
					if err != nil {
						continue // server shutting down
					}
					io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain only
					resp.Body.Close()
				}
			}
		}()
	}

	// Mid-run assertion scrapes: serving entries vanish when a session
	// completes, so the all-sessions map must be sampled while streams
	// are live. Accumulate across polls until every session has shown up.
	all := make(map[string]overlay.Snapshot)
	deadline := time.Now().Add(5 * time.Second)
	for len(all) < sessions && time.Now().Before(deadline) {
		var one map[string]overlay.Snapshot
		if err := json.Unmarshal(scrapeBody(t, srv.URL, "/debug/overlay"), &one); err != nil {
			t.Fatalf("all-sessions overlay: %v", err)
		}
		for sid, snap := range one {
			all[sid] = snap
		}
		time.Sleep(10 * time.Millisecond)
	}

	killed := nc.CrashServing(2)
	t.Logf("crashed %d serving nodes mid-stream", killed)

	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i, ls := range leaves {
		wg.Add(1)
		go func(i int, ls *LeafSession) {
			defer wg.Done()
			errs[i] = ls.Wait(60 * time.Second)
		}(i, ls)
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", i, err)
		}
	}

	// Every session must have appeared in a mid-run overlay scrape and
	// left events in the (persistent) flight log.
	events, err := flight.ReadJSONL(strings.NewReader(string(scrapeBody(t, srv.URL, "/debug/flight"))))
	if err != nil {
		t.Fatal(err)
	}
	bySession := make(map[string]int)
	for _, e := range events {
		bySession[e.Session]++
	}
	// Session ids are node/contentID#n; find each content's session.
	for i := 0; i < sessions; i++ {
		marker := fmt.Sprintf("/c%d#", i)
		found := ""
		for sid := range all {
			if strings.Contains(sid, marker) {
				found = sid
				break
			}
		}
		if found == "" {
			t.Errorf("content c%d never appeared in a mid-run /debug/overlay scrape (have %d sessions)", i, len(all))
			continue
		}
		snap := all[found]
		if snap.Session != found || len(snap.Nodes) == 0 {
			t.Errorf("session %s snapshot = %d nodes, session label %q", found, len(snap.Nodes), snap.Session)
		}
		if bySession[found] == 0 {
			t.Errorf("session %s has no flight events", found)
		}
	}
}

// TestNodeSessionTimeoutDumpsOverlay: a node-hosted session whose Wait
// times out self-diagnoses — the error carries the overlay health line
// and names the topology and flight dumps it wrote.
func TestNodeSessionTimeoutDumpsOverlay(t *testing.T) {
	data := randomData(16<<10, 61) // 256 packets at 100/s: far from done at the timeout
	_, ls := startSession(t, NodesConfig{H: 3, Interval: 2, Seed: 62, Obs: engine.Observability{Flight: flight.NewSet(0)}},
		6, data, SessionConfig{PacketSize: 64, Rate: 100})
	err := ls.Wait(400 * time.Millisecond)
	if err == nil {
		t.Fatal("a 2.5 s stream completed within 400 ms")
	}
	msg := err.Error()
	if !strings.Contains(msg, "overlay: active=") || strings.Contains(msg, "active=0/") {
		t.Errorf("timeout error lacks a live overlay health line: %q", msg)
	}
	paths := regexp.MustCompile(`dumped overlay (\S+\.json), flight (\S+\.jsonl)`).FindStringSubmatch(msg)
	if paths == nil {
		t.Fatalf("timeout error names no overlay+flight dump: %q", msg)
	}
	defer os.Remove(paths[1])
	defer os.Remove(paths[2])
	raw, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	var snap overlay.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("overlay dump is not JSON: %v", err)
	}
	if snap.Session != string(ls.ID) || len(snap.Nodes) == 0 {
		t.Errorf("overlay dump: session %q, %d nodes", snap.Session, len(snap.Nodes))
	}
	f, err := os.Open(paths[2])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if events, err := flight.ReadJSONL(f); err != nil || len(events) == 0 {
		t.Errorf("flight dump: %d events, err %v", len(events), err)
	}
}

// TestNodeClusterSnapshotCoverageAndGauges: a node population's snapshot
// knows the content length (so coverage is the real division coverage,
// not 0) and refreshes the session's overlay_* gauges.
func TestNodeClusterSnapshotCoverageAndGauges(t *testing.T) {
	data := randomData(16<<10, 63)
	reg := metrics.New()
	nc, ls := startSession(t, NodesConfig{H: 3, Interval: 2, Seed: 64, Obs: engine.Observability{Metrics: reg}},
		6, data, SessionConfig{PacketSize: 64, Rate: 400})
	// Mid-stream: serving state is dropped once a session is reaped.
	deadline := time.Now().Add(10 * time.Second)
	for ls.Progress() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no delivery progress within 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	snap := nc.Snapshot(ls.ID)
	if snap.Health.Coverage <= 0 || snap.Health.Coverage > 1.0001 {
		t.Errorf("coverage = %v, want (0, 1]", snap.Health.Coverage)
	}
	want := map[string]float64{
		"overlay_active_peers":   float64(snap.Health.ActivePeers),
		"overlay_coverage_ratio": snap.Health.Coverage,
		"overlay_depth":          float64(snap.Health.Depth),
	}
	for _, g := range reg.Snapshot().Gauges {
		v, ok := want[g.Name]
		if !ok {
			continue
		}
		if len(g.Labels) != 1 || g.Labels[0].Key != "session" || g.Labels[0].Value != string(ls.ID) {
			t.Errorf("%s labels = %v, want session=%s", g.Name, g.Labels, ls.ID)
		}
		if g.Value != v {
			t.Errorf("%s = %v, snapshot says %v", g.Name, g.Value, v)
		}
		delete(want, g.Name)
	}
	for name := range want {
		t.Errorf("gauge %s never published", name)
	}
	waitExact(t, ls, data, 30*time.Second)
}

// /debug/flight?session= and ?peer= narrow the dump to one session's
// tracks, one roster index's, or both.
func TestServeFlightFilters(t *testing.T) {
	fl := flight.NewSet(0)
	for _, sess := range []string{"s1", "s2"} {
		for peer := -1; peer < 2; peer++ {
			fl.Recorder(sess, peer).Record(flight.Event{Dir: "ev", Type: "control"})
		}
	}
	cases := []struct {
		query string
		want  int
	}{
		{"", 6},
		{"?session=s1", 3},
		{"?peer=-1", 2},
		{"?session=s2&peer=1", 1},
		{"?session=s3", 0},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		serveFlight(rec, httptest.NewRequest("GET", "/debug/flight"+c.query, nil), fl)
		events, err := flight.ReadJSONL(rec.Body)
		if err != nil {
			t.Fatalf("%q: %v", c.query, err)
		}
		if len(events) != c.want {
			t.Errorf("%q: %d events, want %d", c.query, len(events), c.want)
		}
		q := httptest.NewRequest("GET", "/debug/flight"+c.query, nil).URL.Query()
		for _, e := range events {
			if s := q.Get("session"); s != "" && e.Session != s {
				t.Errorf("%q returned session %q", c.query, e.Session)
			}
			if p := q.Get("peer"); p != "" && fmt.Sprint(e.Peer) != p {
				t.Errorf("%q returned peer %d", c.query, e.Peer)
			}
		}
	}
}

// TestServeFlightDisabled pins the 404 contract when recording is off.
func TestServeFlightDisabled(t *testing.T) {
	rec := httptest.NewRecorder()
	serveFlight(rec, httptest.NewRequest("GET", "/debug/flight", nil), nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("disabled flight endpoint returned %d, want 404", rec.Code)
	}
}
