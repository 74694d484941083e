package simnet

import (
	"testing"

	"p2pmss/internal/des"
)

// BenchmarkSendDeliver is one simulated message per op: 64 messages
// circulate around a ring of 64 nodes over jittery links, each delivery
// forwarding its message to the next node.
func BenchmarkSendDeliver(b *testing.B) {
	const nodes = 64
	eng := des.New(1)
	nw := New(eng)
	nw.SetDefaultLink(LinkParams{Latency: 1, Jitter: 0.5})
	left := 0
	for i := 0; i < nodes; i++ {
		id := NodeID(i)
		nw.AttachFunc(id, func(_ NodeID, m Message) {
			if left > 0 {
				left--
				nw.Send(id, (id+1)%nodes, m)
			}
		})
	}
	var msg Message = "x"
	circulate := func(n int) {
		left = n
		for i := 0; i < nodes && left > 0; i++ {
			left--
			nw.Send(NodeID(i), NodeID((i+1)%nodes), msg)
		}
		eng.Run()
	}
	circulate(nodes) // fills the delivery pool
	b.ReportAllocs()
	b.ResetTimer()
	circulate(b.N)
}
