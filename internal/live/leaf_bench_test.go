package live

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"p2pmss/internal/content"
	"p2pmss/internal/parity"
	"p2pmss/internal/seq"
	"p2pmss/internal/transport"
)

// newLeafStream sets up a leaf node on a bounded fabric and three
// senders of an h = 2 enhanced 1 MiB content. stream opens session sid,
// encodes each of the content's n packets into one reused buffer and
// sends it through the fabric's pooled copy to the leaf, and waits for
// the session to complete: the live data plane's per-packet path. With
// direct set, stream hands each message to the leaf's handler itself,
// bypassing the fabric, whose pool the race detector randomly empties.
func newLeafStream(tb testing.TB, direct bool) (stream func(sid SessionID), n int) {
	const size, packetSize, h = 1 << 20, 1024, 2
	c := content.New("bench", randomData(size, 91), packetSize)
	enhanced := parity.Enhance(c.Sequence(), h) // payload-backed: what the senders' frames carry
	roster := []string{"cp0", "cp1", "cp2"}
	f := transport.NewBoundedQueuedFabric(256, transport.QueueBlock)
	var senders []transport.Endpoint
	for _, name := range roster {
		ep := f.Endpoint(name, func(transport.Msg) {})
		tb.Cleanup(func() { ep.Close() })
		senders = append(senders, ep)
	}
	leafNode, err := NewNode(NodeConfig{Store: content.NewStore(), Roster: roster, H: 3, Interval: h}, WithFabric(f, "leaf"))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { leafNode.Close() })
	var buf []byte
	return func(sid SessionID) {
		leaf, err := leafNode.Open(SessionConfig{ID: sid, ContentID: "bench", Rate: 1e6,
			ContentSize: size, PacketSize: packetSize, Seed: 1})
		if err != nil {
			tb.Fatal(err)
		}
		for j, p := range enhanced {
			buf = seq.AppendPacket(buf[:0], p)
			from := senders[j%len(senders)]
			m := transport.Msg{Type: typeData, From: from.Name(), Session: string(sid), Payload: buf}
			if direct {
				leaf.handle(m)
			} else if err := from.Send("leaf", m); err != nil {
				tb.Fatal(err)
			}
		}
		if err := leaf.Wait(10 * time.Second); err != nil {
			tb.Fatal(err)
		}
		f.Wait()
		leaf.Close()
	}, len(enhanced)
}

// BenchmarkLeafStream streams one session's data into a node-hosted leaf
// per op (newLeafStream). allocs/op counts a whole session, set-up
// included; allocs/pkt is per delivered packet.
func BenchmarkLeafStream(b *testing.B) {
	stream, n := newLeafStream(b, false)
	var before, after runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		stream(SessionID(fmt.Sprintf("s%d", i)))
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*n), "allocs/pkt")
}

// A warm leaf session decodes its parities' identities into its own
// arena's blocks, each shared by many parities: the whole session, set-up
// included, costs well under one allocation per ten packets.
func TestWarmLeafAllocsPerPacket(t *testing.T) {
	stream, n := newLeafStream(t, true)
	i := 0
	allocs := testing.AllocsPerRun(3, func() {
		i++
		stream(SessionID(fmt.Sprintf("s%d", i)))
	})
	if perPkt := allocs / float64(n); perPkt >= 0.1 {
		t.Errorf("%.0f allocs for a %d-packet session: %.3f per packet, want < 0.1", allocs, n, perPkt)
	}
}
