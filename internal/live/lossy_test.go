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

// buildLossySession builds an n-peer session plus a leaf on fabric f,
// letting the caller adjust the leaf's knobs before it binds. A non-nil
// leafTap sees every message the leaf sends, with the leaf's endpoint,
// and loses the ones it returns true for.
func buildLossySession(t *testing.T, f *transport.Fabric, n, H, interval int, proto Protocol, data []byte, packetSize int, seed int64, adjust func(*LeafConfig), leafTap func(ep transport.Endpoint, to string, m transport.Msg) bool) ([]*Peer, *Leaf) {
	t.Helper()
	c := content.New("movie", data, packetSize)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("cp%d", i)
	}
	peers := make([]*Peer, n)
	for i, name := range names {
		p, err := NewPeer(PeerConfig{
			Content: c, Roster: names, H: H, Interval: interval,
			Protocol: proto, Delta: 5 * time.Millisecond, Seed: seed + int64(i) + 1,
		}, WithFabric(f, name))
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
	}
	cfg := LeafConfig{
		Roster: names, H: H, Interval: interval, Rate: 400,
		ContentSize: len(data), PacketSize: packetSize,
		RepairAfter: 300 * time.Millisecond, Seed: seed + 1000,
	}
	if adjust != nil {
		adjust(&cfg)
	}
	via := WithFabric(f, "leaf")
	if leafTap != nil {
		via = WithAttach(func(h transport.Handler) (transport.Endpoint, error) {
			ep := f.Endpoint("leaf", h)
			return tapEndpoint{ep, func(to string, m transport.Msg) bool { return leafTap(ep, to, m) }}, nil
		})
	}
	leaf, err := NewLeaf(cfg, via)
	if err != nil {
		t.Fatal(err)
	}
	return peers, leaf
}

// TestLeafRequestRetryAfterLostRequest: regression for the silent-
// request-loss bug. Start's failover only reacts to Send errors, but a
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
	peers, leaf := buildLossySession(t, f, 6, 3, 2, engine.DCoP, data, 64, 21, func(cfg *LeafConfig) {
		cfg.RepairAfter = 0 // isolate: only the request deadline may save this
		cfg.RequestRetry = 50 * time.Millisecond
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
	defer leaf.Close()
	defer closeAll(peers)

	if err := leaf.Start(); err != nil {
		t.Fatal(err)
	}
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
	peers, leaf := buildLossySession(t, f, 6, 3, 2, engine.TCoP, data, 64, 33, func(cfg *LeafConfig) {
		cfg.RepairAfter = 250 * time.Millisecond
		cfg.RequestRetry = 250 * time.Millisecond
	}, nil)
	defer leaf.Close()
	defer closeAll(peers)

	if err := leaf.Start(); err != nil {
		t.Fatal(err)
	}
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
// byte-identical content through 1%, 5%, and bursty 20% injected loss
// (with reordering and duplication on top), race-clean.
func TestLiveLossAcceptance(t *testing.T) {
	data := randomData(6000, 12)
	cases := []struct {
		name string
		imp  transport.Impairment
	}{
		{"loss1pct", transport.Impairment{Seed: 101, Loss: 0.01, Reorder: 0.05, ReorderWindow: 4}},
		{"loss5pct", transport.Impairment{Seed: 102, Loss: 0.05, Duplicate: 0.02, Reorder: 0.05, ReorderWindow: 4}},
		{"burst20pct", transport.Impairment{Seed: 103, Loss: 0.05, BurstLen: 3, Reorder: 0.03, ReorderWindow: 6}},
	}
	for _, proto := range []Protocol{engine.DCoP, engine.TCoP} {
		proto := proto
		for _, tc := range cases {
			tc := tc
			t.Run(fmt.Sprintf("%v/%s", proto, tc.name), func(t *testing.T) {
				t.Parallel()
				f := transport.NewFabric()
				f.SetImpairment(tc.imp)
				peers, leaf := buildLossySession(t, f, 8, 3, 3, proto, data, 64, tc.imp.Seed, func(cfg *LeafConfig) {
					cfg.RepairAfter = 250 * time.Millisecond
					cfg.RequestRetry = 250 * time.Millisecond
				}, nil)
				defer leaf.Close()
				defer closeAll(peers)
				if err := leaf.Start(); err != nil {
					t.Fatal(err)
				}
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
				UseUDP:   true,
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
		UseUDP:   true,
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
