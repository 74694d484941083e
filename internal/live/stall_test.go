package live

import (
	"bytes"
	"testing"
	"time"

	"p2pmss/internal/engine"
	"p2pmss/internal/metrics"
	"p2pmss/internal/transport"
)

// TestLeafQuietStartNotAStall: the silence before the first data packet
// is not a stall. The leaf's requests are held for 200 ms after Open and
// then sent in order, so the first packet reaches it about 200 ms after
// Open, more than two 90 ms stall windows later; a lossless run still
// asks for nothing and receives no duplicate. (With 60 ms windows the
// quiet start ended 240 ms after Open, only 40 ms after the first
// packet is due, and a loaded -race run sometimes asked for repairs.)
// The requests go out together: a selected peer adopted as another's
// child before its own request arrives ignores the request, and its slot
// is never streamed.
func TestLeafQuietStartNotAStall(t *testing.T) {
	data := randomData(200*64, 51)
	f := transport.NewFabric()
	reg := metrics.New()
	hold := holdTap{holding: true}
	leaf := buildLossySession(t, f, 6, 3, 2, engine.TCoP, data, 64, 51, func(cfg *NodeConfig, sc *SessionConfig) {
		sc.RepairAfter = 90 * time.Millisecond
		cfg.Obs.Metrics = reg
	}, func(ep transport.Endpoint, to string, m transport.Msg) bool {
		return m.Type == typeRequest && hold.hold(ep, to, m)
	})
	time.Sleep(200 * time.Millisecond)
	hold.release()
	if err := leaf.Wait(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got, ok := leaf.Bytes(); !ok || !bytes.Equal(got, data) {
		t.Fatal("reassembled bytes differ")
	}
	if n, _ := counterTotal(reg, "live_repair_requests_total", "trigger", "stall"); n != 0 {
		t.Errorf("lossless run sent %d stall repair requests", n)
	}
	if _, dup, _ := leaf.Stats(); dup != 0 {
		t.Errorf("lossless run received %d duplicates", dup)
	}
}

// TestLeafStallFallsThroughQuietStart: a leaf whose selected peers never
// deliver — every data packet they send is lost until the leaf's first
// stall round — hears nothing at all, and still completes: the quiet
// start only delays the backstop, which then asks the roster for
// everything. With n = H every roster member is selected, so no
// hand-off child streams around the loss.
func TestLeafStallFallsThroughQuietStart(t *testing.T) {
	data := randomData(120*64, 52)
	reg := metrics.New()
	gs := startGapSession(t, engine.DCoP, 3, data, 5*time.Millisecond, 50*time.Millisecond, reg, func(gs *gapSession, _ transport.Msg) bool {
		gs.mu.Lock()
		defer gs.mu.Unlock()
		return len(gs.repairs) == 0
	})
	if err := gs.leaf.Wait(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got, ok := gs.leaf.Bytes(); !ok || !bytes.Equal(got, data) {
		t.Fatal("reassembled bytes differ")
	}
	if n, _ := counterTotal(reg, "live_repair_requests_total", "trigger", "stall"); n == 0 {
		t.Error("completed without a stall round: the selected peers' data got through")
	}
}
