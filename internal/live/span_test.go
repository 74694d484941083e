package live

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"p2pmss/internal/engine"
	"p2pmss/internal/span"
)

// TestConcurrentSessionsShareOneCollector streams 8 concurrent sessions
// over one node population into a single shared span collector — the
// mssplay -sessions -trace-out configuration. Run under -race this is
// the tracing data-race check; functionally it pins that every session
// lands in its own trace with a session root, member handshakes, and a
// first-packet mark.
func TestConcurrentSessionsShareOneCollector(t *testing.T) {
	const sessions = 8
	store, data := chaosStore(sessions, 8<<10, 128, 700)
	col := span.NewCollector()
	nc, err := StartNodes(NodesConfig{
		Nodes:    10,
		Store:    store,
		H:        3,
		Interval: 2,
		Delta:    5 * time.Millisecond,
		Seed:     701,
		Obs:      engine.Observability{Spans: col},
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
	var wg sync.WaitGroup
	for i, ls := range leaves {
		wg.Add(1)
		go func(i int, ls *LeafSession) {
			defer wg.Done()
			if err := ls.Wait(60 * time.Second); err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			id := fmt.Sprintf("c%d", i)
			if got, ok := ls.Bytes(); !ok || !bytes.Equal(got, data[id]) {
				t.Errorf("session %d delivered wrong bytes", i)
			}
		}(i, ls)
	}
	wg.Wait()
	nc.Close() // finalize dangling spans before reading the collector

	spans := col.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans collected")
	}
	type perTrace struct{ session, handshake, firstPacket int }
	byTrace := map[span.TraceID]*perTrace{}
	for _, s := range spans {
		if s.Trace == 0 {
			t.Fatalf("span %+v collected without a trace", s)
		}
		pt := byTrace[s.Trace]
		if pt == nil {
			pt = &perTrace{}
			byTrace[s.Trace] = pt
		}
		switch s.Name {
		case "session":
			pt.session++
		case "handshake":
			pt.handshake++
		case "first_packet":
			pt.firstPacket++
		}
	}
	if len(byTrace) != sessions {
		t.Fatalf("spans span %d traces, want %d (one per session)", len(byTrace), sessions)
	}
	for tr, pt := range byTrace {
		if pt.session != 1 {
			t.Errorf("trace %x: %d session roots, want 1", uint64(tr), pt.session)
		}
		if pt.handshake == 0 {
			t.Errorf("trace %x: no handshake spans", uint64(tr))
		}
		if pt.firstPacket != 1 {
			t.Errorf("trace %x: %d first_packet marks, want 1", uint64(tr), pt.firstPacket)
		}
	}
}
