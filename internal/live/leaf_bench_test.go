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

// BenchmarkLeafStream streams one session's data through a bounded
// fabric into a node-hosted leaf per op — the live data plane's per-packet
// path: three senders encoding each packet of an h = 2 enhanced 1 MiB
// content into one reused buffer, the fabric's pooled copy, and the
// leaf's decode, assembly and parity bookkeeping. allocs/op counts a
// whole session, set-up included; allocs/pkt is per delivered packet.
func BenchmarkLeafStream(b *testing.B) {
	const size, packetSize, h = 1 << 20, 1024, 2
	c := content.New("bench", randomData(size, 91), packetSize)
	enhanced := parity.Enhance(c.Sequence(), h) // payload-backed: what the senders' frames carry
	roster := []string{"cp0", "cp1", "cp2"}
	f := transport.NewBoundedQueuedFabric(256, transport.QueueBlock)
	var senders []transport.Endpoint
	for _, name := range roster {
		ep := f.Endpoint(name, func(transport.Msg) {})
		defer ep.Close()
		senders = append(senders, ep)
	}
	leafNode, err := NewNode(NodeConfig{Store: content.NewStore(), Roster: roster, H: 3, Interval: h}, WithFabric(f, "leaf"))
	if err != nil {
		b.Fatal(err)
	}
	defer leafNode.Close()
	var buf []byte
	var before, after runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		sid := SessionID(fmt.Sprintf("s%d", i))
		leaf, err := leafNode.Open(SessionConfig{ID: sid, ContentID: "bench", Rate: 1e6,
			ContentSize: size, PacketSize: packetSize, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		for j, p := range enhanced {
			buf = seq.AppendPacket(buf[:0], p)
			from := senders[j%len(senders)]
			if err := from.Send("leaf", transport.Msg{Type: typeData, From: from.Name(), Session: string(sid), Payload: buf}); err != nil {
				b.Fatal(err)
			}
		}
		if err := leaf.Wait(10 * time.Second); err != nil {
			b.Fatal(err)
		}
		f.Wait()
		leaf.Close()
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*len(enhanced)), "allocs/pkt")
}
