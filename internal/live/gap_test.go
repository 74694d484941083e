package live

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"p2pmss/internal/content"
	"p2pmss/internal/engine"
	"p2pmss/internal/metrics"
	"p2pmss/internal/transport"
)

// gapSession streams data from n peers to a leaf over one fabric (FIFO
// from a single pump, so nothing is reordered). Every message a
// peer sends passes through swallow first (true loses it); every repair
// the leaf sends is recorded. The leaf's metrics go to reg.
//
// No peer sends anything before the leaf has sent all its requests: a
// selected peer adopted as another's child before its own request
// arrives ignores the request, and its slot is never streamed — a race
// of a preempted Start these tests are not about.
type gapSession struct {
	leaf *LeafSession

	mu       sync.Mutex
	lastData time.Time // when a peer last sent the leaf a data packet
	repairs  [][]int64 // the indices of every repair the leaf sent
}

func startGapSession(t *testing.T, proto Protocol, n int, data []byte, delta, repairAfter time.Duration, reg *metrics.Registry, swallow func(gs *gapSession, m transport.Msg) bool) *gapSession {
	t.Helper()
	f := transport.NewFabric()
	gs := &gapSession{}
	requested := make(chan struct{})
	_, leaf := hostNodes(t, n, storeOf(content.New("movie", data, 64)), NodeConfig{
		H: 3, Interval: 2, Protocol: proto, Delta: delta, Seed: 1, ReapAfter: -1, Obs: engine.Observability{Metrics: reg},
	}, tapped(f, func(name string, _ transport.Endpoint, to string, m transport.Msg) bool {
		if name == "leaf" {
			var b repairBody
			if m.Type == typeRepair && b.DecodeWire(m.Payload) == nil {
				gs.mu.Lock()
				gs.repairs = append(gs.repairs, b.Indices)
				gs.mu.Unlock()
			}
			return false
		}
		<-requested
		if m.Type != typeData || to != "leaf" {
			return false
		}
		if swallow != nil && swallow(gs, m) {
			return true
		}
		gs.mu.Lock()
		gs.lastData = time.Now()
		gs.mu.Unlock()
		return false
	}))
	sc := movieSession(data, 64, 9)
	sc.RepairAfter = repairAfter
	var err error
	gs.leaf, err = leaf.Open(sc)
	close(requested)
	if err != nil {
		t.Fatal(err)
	}
	return gs
}

// asked reports whether the leaf has requested index k. Callers hold
// gs.mu.
func (gs *gapSession) asked(k int64) bool {
	for _, r := range gs.repairs {
		if slices.Contains(r, k) {
			return true
		}
	}
	return false
}

// counterTotal sums the counters of one family whose labels include
// every key=value pair given.
func counterTotal(reg *metrics.Registry, name string, want ...string) (total int64, series int) {
	for _, c := range reg.Snapshot().Counters {
		if c.Name != name {
			continue
		}
		match := true
		for i := 0; i < len(want); i += 2 {
			if !slices.Contains(c.Labels, metrics.Label{Key: want[i], Value: want[i+1]}) {
				match = false
			}
		}
		if match {
			total += c.Value
			series++
		}
	}
	return total, series
}

// TestGapRepairBeforeStreamEnds: two packets of one recovery segment
// dropped mid-stream — in every form, parities covering them included —
// are asked for as soon as the later stream proves parity cannot bring
// them back, so the session completes within RepairAfter/2 of the last
// data packet. A stall round could not: it waits RepairAfter without
// progress.
func TestGapRepairBeforeStreamEnds(t *testing.T) {
	for _, proto := range []Protocol{engine.TCoP, engine.DCoP} {
		t.Run(fmt.Sprint(proto), func(t *testing.T) {
			data := randomData(64*120, 41)
			const repairAfter = 400 * time.Millisecond
			reg := metrics.New()
			// t61 and t62 form one h=2 segment of Esq(content, 2); withhold
			// them until the leaf has asked for them.
			gs := startGapSession(t, proto, 6, data, 10*time.Millisecond, repairAfter, reg, func(gs *gapSession, m transport.Msg) bool {
				gs.mu.Lock()
				defer gs.mu.Unlock()
				return !gs.asked(61) && mentions(m, "t61", "t62")
			})
			if err := gs.leaf.Wait(20 * time.Second); err != nil {
				t.Fatal(err)
			}
			done := time.Now()
			if got, ok := gs.leaf.Bytes(); !ok || !bytes.Equal(got, data) {
				t.Fatal("reassembled bytes differ")
			}
			gs.mu.Lock()
			defer gs.mu.Unlock()
			if !gs.asked(61) || !gs.asked(62) {
				t.Fatalf("repairs %v do not name the dropped pair", gs.repairs)
			}
			if late := done.Sub(gs.lastData); late > repairAfter/2 {
				t.Errorf("completed %v after the last data packet, want <= %v", late, repairAfter/2)
			}
			if n, _ := counterTotal(reg, "live_repair_requests_total", "trigger", "gap"); n == 0 {
				t.Error("no repair counted with trigger=gap")
			}
		})
	}
}

// TestLosslessHandoffsRequestNoRepair: on a lossless run whose peers
// hand parts of their streams to children — senders the leaf never
// selected, first heard mid-stream — the gap rule asks for nothing, and
// the trigger=gap counter is registered and reads zero.
func TestLosslessHandoffsRequestNoRepair(t *testing.T) {
	for _, proto := range []Protocol{engine.TCoP, engine.DCoP} {
		t.Run(fmt.Sprint(proto), func(t *testing.T) {
			data := randomData(64*200, 43)
			reg := metrics.New()
			// A long RepairAfter: on a loaded host no scheduling hiccup may
			// pass for a selected peer that never started.
			gs := startGapSession(t, proto, 8, data, 20*time.Millisecond, 5*time.Second, reg, nil)
			if err := gs.leaf.Wait(20 * time.Second); err != nil {
				t.Fatal(err)
			}
			if got, ok := gs.leaf.Bytes(); !ok || !bytes.Equal(got, data) {
				t.Fatal("reassembled bytes differ")
			}
			if n, _ := counterTotal(reg, "live_handoffs_total"); n == 0 {
				t.Fatal("no hand-off happened; the run tests nothing")
			}
			gs.mu.Lock()
			repairs := gs.repairs
			gs.mu.Unlock()
			if len(repairs) != 0 {
				t.Errorf("lossless run sent %d repair requests: %v", len(repairs), repairs)
			}
			n, series := counterTotal(reg, "live_repair_requests_total", "trigger", "gap")
			if series != 1 || n != 0 {
				t.Errorf("live_repair_requests_total{trigger=gap} = %d over %d series, want 0 over 1", n, series)
			}
		})
	}
}

// TestTailRepairBeforeWindow: the last recovery segment's two data
// packets dropped in every form — past every sender's last packet, where
// no arrival proves them lost — are asked for by the end-of-stream round
// once the stream has ended and gone quiet. The leaf re-arms its timer
// for that round when the stream ends, so the session completes well
// before the first half-window check, let alone a stall round.
func TestTailRepairBeforeWindow(t *testing.T) {
	for _, proto := range []Protocol{engine.TCoP, engine.DCoP} {
		t.Run(fmt.Sprint(proto), func(t *testing.T) {
			data := randomData(64*120, 44)
			const repairAfter = 4 * time.Second
			reg := metrics.New()
			var streamEnd time.Time // the last data packet sent before the leaf asked
			gs := startGapSession(t, proto, 6, data, 10*time.Millisecond, repairAfter, reg, func(gs *gapSession, m transport.Msg) bool {
				gs.mu.Lock()
				defer gs.mu.Unlock()
				if gs.asked(119) {
					return false
				}
				streamEnd = time.Now()
				return mentions(m, "t119", "t120")
			})
			if err := gs.leaf.Wait(20 * time.Second); err != nil {
				t.Fatal(err)
			}
			done := time.Now()
			if got, ok := gs.leaf.Bytes(); !ok || !bytes.Equal(got, data) {
				t.Fatal("reassembled bytes differ")
			}
			gs.mu.Lock()
			defer gs.mu.Unlock()
			if !gs.asked(119) || !gs.asked(120) {
				t.Fatalf("repairs %v do not name the dropped pair", gs.repairs)
			}
			if late := done.Sub(streamEnd); late > repairAfter/8 {
				t.Errorf("completed %v after the stream's last data packet, want <= %v", late, repairAfter/8)
			}
			if n, _ := counterTotal(reg, "live_repair_requests_total", "trigger", "tail"); n == 0 {
				t.Error("no repair counted with trigger=tail")
			}
			if n, _ := counterTotal(reg, "live_repair_requests_total", "trigger", "stall"); n != 0 {
				t.Errorf("%d stall repairs: the tail waited for the backstop", n)
			}
		})
	}
}

// TestLosslessRunNoTailOrStall: on a lossless run with a realistic
// RepairAfter the end-of-stream round and the stall round ask for
// nothing, and both trigger series are registered and read zero.
func TestLosslessRunNoTailOrStall(t *testing.T) {
	for _, proto := range []Protocol{engine.TCoP, engine.DCoP} {
		t.Run(fmt.Sprint(proto), func(t *testing.T) {
			data := randomData(64*200, 45)
			reg := metrics.New()
			gs := startGapSession(t, proto, 6, data, 10*time.Millisecond, 300*time.Millisecond, reg, nil)
			if err := gs.leaf.Wait(20 * time.Second); err != nil {
				t.Fatal(err)
			}
			if got, ok := gs.leaf.Bytes(); !ok || !bytes.Equal(got, data) {
				t.Fatal("reassembled bytes differ")
			}
			for _, trigger := range []string{"tail", "stall"} {
				if n, series := counterTotal(reg, "live_repair_requests_total", "trigger", trigger); series != 1 || n != 0 {
					t.Errorf("live_repair_requests_total{trigger=%s} = %d over %d series, want 0 over 1", trigger, n, series)
				}
			}
		})
	}
}
