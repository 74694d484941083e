package transport

import (
	"sync/atomic"
	"testing"
)

// benchMsg builds a data message with a 1 KiB body, like one content
// packet of the live data plane.
func benchMsg() Msg {
	return Msg{Type: "data", From: "127.0.0.1:40001", Session: "s-1", Payload: make([]byte, 1024+14)}
}

// benchFabric pushes b.N messages through one link of f and waits for
// every delivery, so the measured cost covers the full send→handler path.
func benchFabric(b *testing.B, f *Fabric) {
	b.Helper()
	var got atomic.Int64
	f.Endpoint("rx", func(m Msg) { got.Add(1) })
	tx := f.Endpoint("tx", func(Msg) {})
	m := benchMsg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tx.Send("rx", m); err != nil {
			b.Fatal(err)
		}
	}
	f.Wait()
	if int(got.Load()) != b.N {
		b.Fatalf("delivered %d of %d", got.Load(), b.N)
	}
}

func BenchmarkTransportBoundedQueuedFabricSend(b *testing.B) {
	benchFabric(b, NewBoundedQueuedFabric(4096, QueueBlock))
}

// BenchmarkTransportFabricImpairedSend measures the seeded impairment
// policy on the hot path (loss + duplication + reordering enabled).
func BenchmarkTransportFabricImpairedSend(b *testing.B) {
	f := NewBoundedQueuedFabric(4096, QueueBlock)
	f.SetImpairment(Impairment{Seed: 1, Loss: 0.01, Duplicate: 0.01, Reorder: 0.05, ReorderWindow: 4})
	f.Endpoint("rx", func(Msg) {})
	tx := f.Endpoint("tx", func(Msg) {})
	m := benchMsg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tx.Send("rx", m); err != nil {
			b.Fatal(err)
		}
	}
	f.Wait()
}

// BenchmarkTransportUDPSend measures the datagram send path — frame
// built in a pooled buffer, one WriteToUDP — against a live loopback socket
// draining on the other end. Receipt is not awaited: datagram sends
// complete at the socket, and under benchmark load the kernel may shed
// some, which is the semantics being measured.
func BenchmarkTransportUDPSend(b *testing.B) {
	rx, err := ListenUDP("127.0.0.1:0", func(Msg) {})
	if err != nil {
		b.Fatal(err)
	}
	defer rx.Close()
	tx, err := ListenUDP("127.0.0.1:0", func(Msg) {})
	if err != nil {
		b.Fatal(err)
	}
	defer tx.Close()
	m := benchMsg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tx.Send(rx.Name(), m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransportImpairerAdmit isolates the per-message cost of the
// impairment verdict itself (RNG draws, held-queue bookkeeping).
func BenchmarkTransportImpairerAdmit(b *testing.B) {
	im := NewImpairer(Impairment{Seed: 9, Loss: 0.05, Duplicate: 0.02, Reorder: 0.05, ReorderWindow: 4}, func(string, Msg) {})
	m := benchMsg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		im.Admit("tx", "rx", m, func(Msg) {})
	}
}
