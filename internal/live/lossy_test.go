package live

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"p2pmss/internal/content"
	"p2pmss/internal/engine"
	"p2pmss/internal/transport"
)

// buildLossySession hosts an n-node session on fabric f and opens it
// on the leaf node, letting the caller adjust the nodes' and the
// session's knobs first. A non-nil leafTap sees every message the leaf
// node sends, with its endpoint, and loses the ones it returns true for.
func buildLossySession(t *testing.T, f *transport.Fabric, n, H, interval int, proto Protocol, data []byte, packetSize int, seed int64, adjust func(*NodeConfig, *SessionConfig), leafTap func(ep transport.Endpoint, to string, m transport.Msg) bool) *LeafSession {
	t.Helper()
	cfg := NodeConfig{H: H, Interval: interval, Protocol: proto, Delta: 5 * time.Millisecond, Seed: seed}
	sc := movieSession(data, packetSize, seed+1000)
	if adjust != nil {
		adjust(&cfg, &sc)
	}
	_, leaf := hostNodes(t, n, storeOf(content.New("movie", data, packetSize)), cfg,
		tapped(f, func(name string, ep transport.Endpoint, to string, m transport.Msg) bool {
			return name == "leaf" && leafTap != nil && leafTap(ep, to, m)
		}))
	return open(t, leaf, sc)
}

// TestLeafRequestRetryAfterLostRequest: regression for the silent-
// request-loss bug. Open's failover only reacts to Send errors, but a
// datagram transport loses a request without one — the selected peer
// never activates and its whole division goes missing, which is more
// loss than parity covers. Here a tap swallows the leaf's first
// request (returning nil, as UDP would); with repair disabled, only the
// RequestRetry deadline can revive the slot. With H = 3 and interval 2
// parity alone can rebuild one lost division, and it does so about when
// the ~160 ms stream ends, so the deadline sits well before that: at
// 150 ms the content sometimes completed first and nothing was re-sent.
func TestLeafRequestRetryAfterLostRequest(t *testing.T) {
	data := randomData(4000, 8)
	f := transport.NewFabric()
	var mu sync.Mutex
	var lostTo string // where the swallowed request was going
	resent := 0
	leaf := buildLossySession(t, f, 6, 3, 2, engine.DCoP, data, 64, 21, func(_ *NodeConfig, sc *SessionConfig) {
		sc.RepairAfter = 0 // isolate: only the request deadline may save this
		sc.RequestRetry = 50 * time.Millisecond
	}, func(_ transport.Endpoint, to string, _ transport.Msg) bool {
		mu.Lock()
		defer mu.Unlock()
		if lostTo == "" {
			lostTo = to // the leaf's first send is the request for slot 0
			return true
		}
		if to == lostTo {
			resent++
		}
		return false
	})
	if err := leaf.Wait(20 * time.Second); err != nil {
		t.Fatalf("leaf never completed after a silently lost request: %v", err)
	}
	got, ok := leaf.Bytes()
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("reassembled bytes differ after request retry")
	}
	mu.Lock()
	defer mu.Unlock()
	if resent == 0 {
		t.Fatal("the request was never re-sent")
	}
}

// TestLeafDuplicateRepairDelivery: regression for duplicate-delivery
// handling on the stall/re-request path. Heavy duplication (every other
// message delivered twice) combined with loss forces repair rounds whose
// retransmissions also arrive in duplicate; progress accounting must
// count each packet once, complete exactly when all are present, and
// reconstruct byte-identical content.
func TestLeafDuplicateRepairDelivery(t *testing.T) {
	data := randomData(4000, 9)
	f := transport.NewFabric()
	f.SetImpairment(transport.Impairment{Seed: 31, Loss: 0.10, Duplicate: 0.5})
	leaf := buildLossySession(t, f, 6, 3, 2, engine.TCoP, data, 64, 33, func(_ *NodeConfig, sc *SessionConfig) {
		sc.RepairAfter = 250 * time.Millisecond
		sc.RequestRetry = 250 * time.Millisecond
	}, nil)
	if err := leaf.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	got, ok := leaf.Bytes()
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("reassembled bytes differ under duplication")
	}
	_, dup, _ := leaf.Stats()
	if dup == 0 {
		t.Fatal("no duplicate ever reached the leaf; the regression went unexercised")
	}
	want := int64(len(data)+63) / 64
	if have := leaf.Progress(); have != want {
		t.Fatalf("progress counted %d packets of %d — duplicates double-counted", have, want)
	}
}

// TestLiveLossAcceptance is the §3.2 acceptance matrix: for both
// protocols, a leaf receiving at rate τ(h+1)/h reconstructs
// byte-identical content through 1%, 5%, and bursty injected loss
// (with reordering and duplication on top), race-clean. The bursty case
// adds Gilbert–Elliott bursts of four messages on average to 5% loss:
// 4/23 ≈ 17% of the messages are lost.
func TestLiveLossAcceptance(t *testing.T) {
	data := randomData(6000, 12)
	cases := []struct {
		name string
		imp  transport.Impairment
	}{
		{"loss1pct", transport.Impairment{Seed: 101, Loss: 0.01, Reorder: 0.05, ReorderWindow: 4}},
		{"loss5pct", transport.Impairment{Seed: 102, Loss: 0.05, Duplicate: 0.02, Reorder: 0.05, ReorderWindow: 4}},
		{"burst20pct", transport.Impairment{Seed: 103, Loss: 0.05, Burst: &transport.BurstParams{PGoodToBad: 0.0375, PBadToGood: 0.25, LossBad: 1}, Reorder: 0.03, ReorderWindow: 6}},
	}
	for _, proto := range []Protocol{engine.DCoP, engine.TCoP} {
		proto := proto
		for _, tc := range cases {
			tc := tc
			t.Run(fmt.Sprintf("%v/%s", proto, tc.name), func(t *testing.T) {
				t.Parallel()
				f := transport.NewFabric()
				f.SetImpairment(tc.imp)
				leaf := buildLossySession(t, f, 8, 3, 3, proto, data, 64, tc.imp.Seed, func(_ *NodeConfig, sc *SessionConfig) {
					sc.RepairAfter = 250 * time.Millisecond
					sc.RequestRetry = 250 * time.Millisecond
				}, nil)
				if err := leaf.Wait(60 * time.Second); err != nil {
					t.Fatal(err)
				}
				got, ok := leaf.Bytes()
				if !ok || !bytes.Equal(got, data) {
					t.Fatalf("%v/%s: reassembled bytes differ", proto, tc.name)
				}
			})
		}
	}
}

// TestLiveOverUDPWithLoss is the tentpole acceptance test: a full session
// over real UDP sockets — every node on its own datagram socket — with
// 5% injected loss plus reordering on every link, for both
// protocols. No send ever reports failure on UDP, so completion proves
// the coordination plane survives on timer deadlines alone and the data
// plane on §3.2 parity plus repair, ending byte-identical.
func TestLiveOverUDPWithLoss(t *testing.T) {
	data := randomData(6000, 5)
	for _, proto := range []Protocol{engine.DCoP, engine.TCoP} {
		proto := proto
		t.Run(fmt.Sprintf("%v", proto), func(t *testing.T) {
			t.Parallel()
			_, ls := startSession(t, NodesConfig{
				H:        3,
				Interval: 3,
				Protocol: proto,
				Network:  UDP,
				Impair:   transport.Impairment{Seed: 7, Loss: 0.05, Reorder: 0.05, ReorderWindow: 4},
				Delta:    5 * time.Millisecond,
				Seed:     11,
			}, 8, data, SessionConfig{PacketSize: 64, Rate: 400, RepairAfter: 250 * time.Millisecond})
			waitExact(t, ls, data, 60*time.Second)
		})
	}
}

// TestNodesOverUDPWithLoss runs the session-multiplexing node layer on
// real UDP sockets with injected loss and reordering: two concurrent
// sessions over one node population, each reconstructing byte-identical
// content.
func TestNodesOverUDPWithLoss(t *testing.T) {
	const sessions = 2
	store, data := chaosStore(sessions, 4000, 64, 60)
	nc, err := StartNodes(NodesConfig{
		Nodes:    8,
		Store:    store,
		H:        3,
		Interval: 3,
		Delta:    5 * time.Millisecond,
		Network:  UDP,
		Impair:   transport.Impairment{Seed: 55, Loss: 0.03, Reorder: 0.03, ReorderWindow: 4},
		Seed:     70,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	leaves := make([]*LeafSession, sessions)
	for i := range leaves {
		id := fmt.Sprintf("c%d", i)
		ls, err := nc.Open(i, SessionConfig{
			ContentID:    id,
			ContentSize:  len(data[id]),
			PacketSize:   64,
			Rate:         400,
			RepairAfter:  250 * time.Millisecond,
			RequestRetry: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("open session %d: %v", i, err)
		}
		leaves[i] = ls
	}
	for i, ls := range leaves {
		if err := ls.Wait(60 * time.Second); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		got, ok := ls.Bytes()
		if !ok || !bytes.Equal(got, data[fmt.Sprintf("c%d", i)]) {
			t.Fatalf("session %d delivered wrong bytes over lossy UDP", i)
		}
	}
}

// Seeded-impairment determinism on the in-process fabric is pinned at
// the transport layer (TestFabricImpairmentDeterministic), where the
// send sequence is scripted. A full live session cannot assert count
// determinism: streaming is wall-clock paced, so hand-off marks — and
// with them how many data packets each peer emits — legitimately vary
// between runs even when every impairment verdict is reproducible.
