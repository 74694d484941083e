package live

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"p2pmss/internal/content"
	"p2pmss/internal/engine"
	"p2pmss/internal/metrics"
	"p2pmss/internal/transport"
)

// TestSwarmDiscoveryAcceptance is the issue's acceptance test: a node
// population with NO static roster — every node announces its own
// catalog over gossip and resolves session rosters from the swarm —
// sustains 1,000 concurrent sessions over a 32-content catalog in one
// process. Every session reconstructs its content byte-for-byte, and
// the /metrics endpoint serves per-session coordination-latency
// histograms plus the disco_* directory series.
func TestSwarmDiscoveryAcceptance(t *testing.T) {
	const (
		nodes    = 16
		contents = 32
		sessions = 1000
		pktSize  = 128
	)
	// Each content is held by 4 of the 16 nodes: discovery has to
	// resolve a genuinely different serving subset per content.
	data := make(map[string][]byte, contents)
	stores := make([]*content.Store, nodes)
	for i := range stores {
		stores[i] = content.NewStore()
	}
	for j := 0; j < contents; j++ {
		id := fmt.Sprintf("c%d", j)
		b := randomData(2048, 7000+int64(j))
		data[id] = b
		for _, off := range []int{0, 5, 9, 13} {
			stores[(j+off)%nodes].Put(content.New(id, b, pktSize))
		}
	}
	reg := metrics.New()
	nc, err := StartNodes(NodesConfig{
		Nodes:            nodes,
		Stores:           stores,
		Discover:         true,
		AnnounceInterval: 25 * time.Millisecond,
		// No churn here: a generous TTL keeps the directory stable while
		// announcement rounds queue behind a thousand sessions' data.
		DirectoryTTL:     30 * time.Second,
		H:                3,
		Interval:         2,
		Delta:            5 * time.Millisecond,
		HandshakeTimeout: 100 * time.Millisecond,
		ReapAfter:        500 * time.Millisecond, // above the sessions' RepairAfter, as Open requires
		Seed:             7001,
		Obs:              engine.Observability{Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := nc.WaitDiscovery(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// All sessions run concurrently: each goroutine opens, waits, and
	// byte-verifies one session.
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			id := fmt.Sprintf("c%d", s%contents)
			ls, err := nc.Open(s%nodes, SessionConfig{
				ContentID:   id,
				ContentSize: len(data[id]),
				PacketSize:  pktSize,
				Rate:        800,
				RepairAfter: 400 * time.Millisecond,
			})
			if err != nil {
				errs[s] = fmt.Errorf("open: %w", err)
				return
			}
			if err := ls.Wait(120 * time.Second); err != nil {
				errs[s] = err
				return
			}
			got, ok := ls.Bytes()
			if !ok || !bytes.Equal(got, data[id]) {
				errs[s] = fmt.Errorf("content %s reconstructed wrong bytes", id)
			}
		}(s)
	}
	wg.Wait()
	failed := 0
	for s, err := range errs {
		if err != nil {
			failed++
			if failed <= 3 {
				t.Errorf("session %d: %v", s, err)
			}
		}
	}
	if failed > 0 {
		t.Fatalf("%d of %d sessions failed", failed, sessions)
	}

	// Verify the observability surface the way an operator would: scrape
	// /metrics over HTTP and count per-session latency histograms.
	mux := metrics.DebugMux(reg, nc.DebugHandlers()...)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	body := httpGet(t, srv.URL+"/metrics")
	sessionHistograms := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "live_control_commit_latency_seconds_count{") &&
			strings.Contains(line, `session="`) {
			_, rest, _ := strings.Cut(line, `session="`)
			sid, _, _ := strings.Cut(rest, `"`)
			sessionHistograms[sid] = true
		}
	}
	if len(sessionHistograms) < sessions {
		t.Errorf("/metrics serves commit-latency histograms for %d sessions, want >= %d",
			len(sessionHistograms), sessions)
	}
	if !strings.Contains(body, "disco_records{") {
		t.Error("/metrics lacks the disco_records directory gauge")
	}
	// And the directory debug endpoint reports every node's swarm view.
	var dir map[string]json.RawMessage
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/debug/directory")), &dir); err != nil {
		t.Fatalf("/debug/directory is not JSON: %v", err)
	}
	if len(dir) != nodes {
		t.Errorf("/debug/directory reports %d nodes, want %d", len(dir), nodes)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSwarmDiscoveryChurn: when a node crash-stops mid-swarm, its
// directory records expire from every surviving node after the TTL — no
// static roster ever knew about it, and no goodbye was sent.
func TestSwarmDiscoveryChurn(t *testing.T) {
	store, _ := chaosStore(2, 1<<10, 64, 7100)
	const ttl = 200 * time.Millisecond
	nc, err := StartNodes(NodesConfig{
		Nodes:            8,
		Store:            store,
		Discover:         true,
		AnnounceInterval: 20 * time.Millisecond,
		DirectoryTTL:     ttl,
		H:                2,
		Interval:         2,
		Seed:             7101,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := nc.WaitDiscovery(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	victim := nc.Nodes[7].Addr()
	nc.Nodes[7].Close()
	deadline := time.Now().Add(10*ttl + time.Second)
	for _, nd := range nc.Nodes[:7] {
		for {
			alive := false
			for _, a := range nd.Directory().Lookup("c0") {
				if a == victim {
					alive = true
				}
			}
			if !alive {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s still in %s's directory long after the TTL", victim, nd.Addr())
			}
			time.Sleep(5 * time.Millisecond)
		}
		if got := len(nd.Directory().Lookup("c0")); got != 7 {
			t.Errorf("%s: %d peers after crash, want 7", nd.Addr(), got)
		}
	}
}

// TestNodeReapsIdleSessions pins the reaping contract: finished leaf
// sessions and quiesced serving peers are torn down, the
// live_node_sessions_active gauges return to zero (never negative), the
// reaped counters account for every session — and the session results
// stay readable after the reap.
func TestNodeReapsIdleSessions(t *testing.T) {
	const sessions = 3
	store, data := chaosStore(sessions, 4<<10, 64, 7200)
	reg := metrics.New()
	nc, err := StartNodes(NodesConfig{
		Nodes:     4,
		Store:     store,
		H:         2,
		Interval:  2,
		Delta:     5 * time.Millisecond,
		ReapAfter: 50 * time.Millisecond,
		Seed:      7201,
		Obs:       engine.Observability{Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	leaves := make([]*LeafSession, sessions)
	for i := range leaves {
		id := fmt.Sprintf("c%d", i)
		ls, err := nc.Open(i, SessionConfig{
			ContentID: id, ContentSize: len(data[id]), PacketSize: 64, Rate: 800,
		})
		if err != nil {
			t.Fatal(err)
		}
		leaves[i] = ls
	}
	for i, ls := range leaves {
		if err := ls.Wait(30 * time.Second); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	// The reaper must drain every node's session table without any
	// explicit Close from the application.
	gaugeSum := func(role string) float64 {
		var sum float64
		for _, g := range reg.Snapshot().Gauges {
			if g.Name != "live_node_sessions_active" {
				continue
			}
			for _, l := range g.Labels {
				if l.Key == "role" && l.Value == role {
					sum += g.Value
				}
			}
		}
		return sum
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		total := 0
		for _, nd := range nc.Nodes {
			total += sessionCount(nd)
		}
		if total == 0 && gaugeSum("leaf") == 0 && gaugeSum("peer") == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sessions never reaped: %d admitted, leaf gauge %v, peer gauge %v",
				total, gaugeSum("leaf"), gaugeSum("peer"))
		}
		time.Sleep(10 * time.Millisecond)
	}
	var leafReaped, peerReaped int64
	for _, c := range reg.Snapshot().Counters {
		if c.Name != "live_node_sessions_reaped_total" {
			continue
		}
		for _, l := range c.Labels {
			if l.Key == "role" {
				switch l.Value {
				case "leaf":
					leafReaped += c.Value
				case "peer":
					peerReaped += c.Value
				}
			}
		}
	}
	if leafReaped != sessions {
		t.Errorf("leaf sessions reaped = %d, want %d", leafReaped, sessions)
	}
	if peerReaped == 0 {
		t.Error("no quiesced serving peers were reaped")
	}
	// Reaping tears down session state, not session results.
	for i, ls := range leaves {
		got, ok := ls.Bytes()
		if !ok || !bytes.Equal(got, data[fmt.Sprintf("c%d", i)]) {
			t.Errorf("session %d results unreadable after reap", i)
		}
	}
}

// TestNodeAdmissionBudget: MaxSessions bounds what a node admits; the
// rejection is observable, and closing a session frees its slot.
func TestNodeAdmissionBudget(t *testing.T) {
	store, data := chaosStore(2, 1<<10, 64, 7300)
	reg := metrics.New()
	f := transport.NewFabric()
	roster := []string{"a0", "a1", "a2"}
	mk := func(name string, maxSessions int) *Node {
		nd, err := NewNode(NodeConfig{
			Store:       store,
			Roster:      roster,
			H:           2,
			Interval:    2,
			MaxSessions: maxSessions,
			ReapAfter:   -1, // manual lifecycle: the budget, not the reaper, frees slots
			Seed:        7301,
			Obs:         engine.Observability{Metrics: reg},
		}, WithFabric(f, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.Close() })
		return nd
	}
	n0 := mk("a0", 1)
	mk("a1", 0)
	mk("a2", 0)

	sc := func(id string) SessionConfig {
		return SessionConfig{ContentID: id, ContentSize: len(data[id]), PacketSize: 64, Rate: 800}
	}
	ls, err := n0.Open(sc("c0"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n0.Open(sc("c1")); err == nil {
		t.Fatal("second session admitted past MaxSessions=1")
	}
	if v := reg.Counter("live_node_admission_rejected_total", "node", "a0").Value(); v == 0 {
		t.Error("admission rejection not counted")
	}
	if err := ls.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	ls.Close() // frees the slot
	if _, err := n0.Open(sc("c1")); err != nil {
		t.Fatalf("slot not freed after close: %v", err)
	}
}

// TestStaticRosterStillDefault pins the migration contract: a cluster
// without Discover resolves sessions through the static-roster shim and
// behaves exactly as before — the Directory accessor reports the
// configured roster verbatim.
func TestStaticRosterStillDefault(t *testing.T) {
	store, data := chaosStore(1, 2<<10, 64, 7400)
	nc, err := StartNodes(NodesConfig{Nodes: 4, Store: store, H: 2, Interval: 2, Seed: 7401})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if got := nc.Nodes[0].Directory().Roster(); len(got) != 4 || got[0] != "node0" {
		t.Fatalf("static directory roster = %v", got)
	}
	ls, err := nc.Open(0, SessionConfig{
		ContentID: "c0", ContentSize: len(data["c0"]), PacketSize: 64, Rate: 800,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	got, ok := ls.Bytes()
	if !ok || !bytes.Equal(got, data["c0"]) {
		t.Fatal("static-roster session reconstructed wrong bytes")
	}
}
