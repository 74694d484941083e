package live

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"p2pmss/internal/content"
	"p2pmss/internal/engine"
	"p2pmss/internal/metrics"
	"p2pmss/internal/transport"
)

// chaosStore builds a catalog of n distinct contents.
func chaosStore(n, size, pktSize int, seed int64) (*content.Store, map[string][]byte) {
	store := content.NewStore()
	data := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("c%d", i)
		b := randomData(size, seed+int64(i))
		store.Put(content.New(id, b, pktSize))
		data[id] = b
	}
	return store, data
}

// TestNodeSessionsChaos is the issue's acceptance test: one node
// population serves 8 concurrent leaf sessions over a single fabric;
// two serving-only nodes crash mid-stream; every session still delivers
// byte-for-byte — via retry/failover, not luck — and the shared registry
// reports per-session retry/failover series.
func TestNodeSessionsChaos(t *testing.T) {
	const sessions = 8
	store, data := chaosStore(sessions, 24<<10, 128, 900)
	reg := metrics.New()
	nc, err := StartNodes(NodesConfig{
		Nodes:            12,
		Store:            store,
		H:                3,
		Interval:         2,
		Delta:            5 * time.Millisecond,
		HandshakeTimeout: 80 * time.Millisecond,
		Seed:             901,
		Obs:              engine.Observability{Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

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

	// Crash two nodes that serve sessions but host no leaf, while the
	// streams are in flight.
	time.Sleep(250 * time.Millisecond)
	killed := nc.CrashServing(2)
	if killed == 0 {
		t.Fatal("no serving-only node was active to crash")
	}
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
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		got, ok := leaves[i].Bytes()
		if !ok || !bytes.Equal(got, data[fmt.Sprintf("c%d", i)]) {
			t.Fatalf("session %d delivered wrong bytes", i)
		}
	}

	// The registry shows per-session series, and the injected churn left
	// retry/failover evidence.
	snap := reg.Snapshot()
	label := func(labels []metrics.Label, key string) string {
		for _, l := range labels {
			if l.Key == key {
				return l.Value
			}
		}
		return ""
	}
	sessionSeries := map[string]bool{}
	var churnHandled int64
	for _, c := range snap.Counters {
		if sid := label(c.Labels, "session"); sid != "" {
			sessionSeries[sid] = true
			switch c.Name {
			case "live_session_retries_total", "live_session_failovers_total":
				churnHandled += c.Value
			}
		}
	}
	if len(sessionSeries) < sessions {
		t.Errorf("metrics cover %d sessions, want >= %d", len(sessionSeries), sessions)
	}
	if churnHandled == 0 {
		t.Error("no per-session retries/failovers recorded despite injected crashes")
	}
	// The node gauges saw the sessions. Completed leaves are reaped, so
	// every session is either still active or counted by the reaper:
	// active + reaped must account for exactly the sessions opened, and
	// the gauge must never go negative (no double decrement). A snapshot
	// reads the counters before the gauges, so one taken while the reaper
	// moves a leaf from one to the other can miss it in both: the sum is
	// judged once the reaper has settled.
	var leafGauge, leafReaped float64
	for deadline := time.Now().Add(5 * time.Second); ; snap = reg.Snapshot() {
		leafGauge, leafReaped = 0, 0
		for _, g := range snap.Gauges {
			if g.Name == "live_node_sessions_active" && label(g.Labels, "role") == "leaf" {
				if g.Value < 0 {
					t.Errorf("live_node_sessions_active{role=leaf,%v} went negative: %v", g.Labels, g.Value)
				}
				leafGauge += g.Value
			}
		}
		for _, c := range snap.Counters {
			if c.Name == "live_node_sessions_reaped_total" && label(c.Labels, "role") == "leaf" {
				leafReaped += float64(c.Value)
			}
		}
		if leafGauge+leafReaped == sessions || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if leafGauge+leafReaped != sessions {
		t.Errorf("leaf sessions active(%v) + reaped(%v) = %v, want %d",
			leafGauge, leafReaped, leafGauge+leafReaped, sessions)
	}
}

// TestNodeJoinMidStream: a node volunteers into an in-flight session and
// is handed a slice of the stream; the session still completes.
func TestNodeJoinMidStream(t *testing.T) {
	store, data := chaosStore(1, 48<<10, 128, 950)
	nc, err := StartNodes(NodesConfig{
		Nodes:    6,
		Store:    store,
		H:        2,
		Interval: 2,
		Delta:    5 * time.Millisecond,
		Seed:     951,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	ls, err := nc.Open(0, SessionConfig{
		ContentID:   "c0",
		ContentSize: len(data["c0"]),
		PacketSize:  128,
		Rate:        800,
		RepairAfter: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)

	// The last node is (very likely) not yet serving this session; even
	// if it is, Join returns its active peer.
	joiner := nc.Nodes[5]
	p, err := joiner.Join(ls.ID, "c0", 5*time.Second)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if !p.Active() {
		t.Fatal("joined peer is not active")
	}
	if err := ls.Wait(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	got, ok := ls.Bytes()
	if !ok || !bytes.Equal(got, data["c0"]) {
		t.Fatal("joined session delivered wrong bytes")
	}
}

// TestMidHandshakeDisconnect closes two candidate children mid-handshake,
// after their parents have sent them controls: parents must fail over to
// alternates (or absorb the share) and the stream still completes. The
// victims are chosen at one protocol point on every run: the peers'
// sends are held until the leaf's requests have been handled, the
// victims are the first two inactive peers a held control is addressed
// to, and the held messages go out once they are closed.
func TestMidHandshakeDisconnect(t *testing.T) {
	data := randomData(8000, 5)
	reg := metrics.New()
	f := transport.NewFabric()
	const H = 3
	hold := holdTap{holding: true}
	var reqMu sync.Mutex
	handled := 0
	requested := make(chan struct{})
	nodes, leafNode := hostNodes(t, 10, storeOf(content.New("movie", data, 64)), NodeConfig{
		H:                H,
		Interval:         2,
		Delta:            5 * time.Millisecond,
		HandshakeTimeout: 60 * time.Millisecond,
		Seed:             1,
		Obs:              engine.Observability{Metrics: reg},
	}, func(name string) Transport {
		if name == "leaf" {
			return WithFabric(f, name)
		}
		return WithAttach(func(h transport.Handler) (transport.Endpoint, error) {
			ep := f.Endpoint(name, func(m transport.Msg) {
				h(m)
				if m.Type == typeRequest {
					reqMu.Lock()
					if handled++; handled == H {
						close(requested)
					}
					reqMu.Unlock()
				}
			})
			return tapEndpoint{ep, func(to string, m transport.Msg) bool { return hold.hold(ep, to, m) }}, nil
		})
	})
	sc := movieSession(data, 64, 52)
	sc.RepairAfter = 200 * time.Millisecond
	leaf := open(t, leafNode, sc)
	select {
	case <-requested:
	case <-time.After(10 * time.Second):
		t.Fatal("the selected peers never handled the leaf's requests")
	}
	closed := map[string]bool{}
	for _, s := range hold.pending() {
		if len(closed) == 2 {
			break
		}
		if s.m.Type != typeControl || closed[s.to] {
			continue
		}
		nd := nodes[slices.IndexFunc(nodes, func(nd *Node) bool { return nd.Addr() == s.to })]
		if p := nd.Serving()[leaf.ID]; p == nil || !p.Active() {
			nd.Close()
			closed[s.to] = true
		}
	}
	if len(closed) != 2 {
		t.Fatalf("controls went to %d inactive peers, want 2", len(closed))
	}
	hold.release()
	if err := leaf.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	got, ok := leaf.Bytes()
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("reassembly differs after mid-handshake disconnects")
	}
	snap := reg.Snapshot()
	var recovered int64
	for _, c := range snap.Counters {
		switch c.Name {
		case "live_session_retries_total", "live_session_failovers_total":
			recovered += c.Value
		}
	}
	if recovered == 0 {
		t.Error("no retries/failovers recorded despite mid-handshake disconnects")
	}
}

// TestWaitTimeoutNamesMissing: when delivery stalls for good, the timeout
// error names the missing subsequences and the peers last seen serving
// them.
func TestWaitTimeoutNamesMissing(t *testing.T) {
	data := randomData(16<<10, 6)
	nodes, leafNode := hostNodes(t, 4, storeOf(content.New("movie", data, 64)),
		NodeConfig{H: 2, Interval: 2, Delta: 5 * time.Millisecond, Seed: 1}, onFabric(transport.NewFabric()))
	sc := movieSession(data, 64, 61)
	sc.RepairAfter = 0 // repair disabled: a mid-stream wipeout must surface in Wait
	leaf := open(t, leafNode, sc)
	deadline := time.Now().Add(10 * time.Second)
	for leaf.Progress() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no progress before crash injection")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, nd := range nodes {
		nd.Close()
	}
	err := leaf.Wait(400 * time.Millisecond)
	if err == nil {
		t.Fatal("Wait succeeded with every peer crashed")
	}
	msg := err.Error()
	if !strings.Contains(msg, "missing") {
		t.Errorf("timeout error lacks missing subsequences: %q", msg)
	}
	if !strings.Contains(msg, "last heard") {
		t.Errorf("timeout error lacks per-peer last-heard info: %q", msg)
	}
	named := false
	for _, nd := range nodes {
		if strings.Contains(msg, nd.Addr()) {
			named = true
			break
		}
	}
	if !named {
		t.Errorf("timeout error names no peer: %q", msg)
	}
}

// TestNodeClusterCloseAfterCrash: Close is safe to call repeatedly,
// concurrently with itself, and after CrashServing already stopped nodes.
func TestNodeClusterCloseAfterCrash(t *testing.T) {
	nc, _ := startSession(t, NodesConfig{H: 2, Interval: 2, Seed: 3}, 5, randomData(4000, 7),
		SessionConfig{PacketSize: 64, Rate: 400})
	time.Sleep(50 * time.Millisecond)
	nc.CrashServing(2)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nc.Close()
		}()
	}
	wg.Wait()
	nc.Close() // and once more after everything stopped
}

// TestNodeCloseIdempotent: Node and NodeCluster Close are idempotent.
func TestNodeCloseIdempotent(t *testing.T) {
	store, _ := chaosStore(1, 1<<10, 64, 970)
	nc, err := StartNodes(NodesConfig{Nodes: 3, Store: store, H: 2, Interval: 2, Seed: 971})
	if err != nil {
		t.Fatal(err)
	}
	nc.Nodes[0].Close()
	nc.Close()
	nc.Close()
	if _, err := nc.Nodes[1].Open(SessionConfig{ContentID: "c0", ContentSize: 1 << 10, PacketSize: 64, Rate: 10}); err == nil {
		t.Error("Open succeeded on a closed node")
	}
}

// TestTCPSendToCrashedEndpointErrors: a send to a crashed (closed) TCP
// endpoint surfaces an error to the caller — the signal the live layer's
// failover logic relies on.
func TestTCPSendToCrashedEndpointErrors(t *testing.T) {
	var mu sync.Mutex
	var got []transport.Msg
	a, err := transport.ListenTCP("127.0.0.1:0", func(m transport.Msg) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := transport.ListenTCP("127.0.0.1:0", func(m transport.Msg) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	m := transport.Msg{Type: "ping", From: a.Name(), Payload: []byte{1}}
	if err := a.Send(b.Name(), m); err != nil {
		t.Fatalf("send to live endpoint: %v", err)
	}
	addr := b.Name()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// The crashed endpoint must be reported, not silently swallowed —
	// whether the cached connection fails on write or the redial is
	// refused.
	var sendErr error
	for i := 0; i < 10; i++ {
		if sendErr = a.Send(addr, m); sendErr != nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if sendErr == nil {
		t.Fatal("sends to a crashed TCP endpoint kept succeeding")
	}
}

// TestOpenRejectsRepairAfterPastReapAfter: the "ReapAfter trap". A serving
// peer reaped before the leaf's stall round drops that round's repair
// request, so a lossy session would end a few packets short without a
// word. Open refuses such a session, naming both durations; a shorter
// RepairAfter is accepted.
func TestOpenRejectsRepairAfterPastReapAfter(t *testing.T) {
	store, data := chaosStore(1, 4000, 64, 90)
	nc, err := StartNodes(NodesConfig{Nodes: 3, Store: store, H: 2, Interval: 2, ReapAfter: 200 * time.Millisecond, Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	sc := SessionConfig{ContentID: "c0", ContentSize: len(data["c0"]), PacketSize: 64, Rate: 400}
	for _, repairAfter := range []time.Duration{200 * time.Millisecond, 300 * time.Millisecond} {
		sc.RepairAfter = repairAfter
		_, err := nc.Open(0, sc)
		if err == nil {
			t.Fatalf("RepairAfter %v accepted with ReapAfter 200ms", repairAfter)
		}
		if msg := err.Error(); !strings.Contains(msg, repairAfter.String()) || !strings.Contains(msg, "200ms") {
			t.Errorf("error %q does not name both durations", msg)
		}
	}
	sc.RepairAfter = 150 * time.Millisecond
	ls, err := nc.Open(0, sc)
	if err != nil {
		t.Fatal(err)
	}
	waitExact(t, ls, data["c0"], 20*time.Second)
}
