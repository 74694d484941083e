package content

import (
	"math/rand"
	"testing"

	"p2pmss/internal/parity"
)

// BenchmarkAssemblerAdd feeds a leaf's whole lossless h = 2 stream of
// 8192 1-KiB packets to an Assembler and reads the content back: the
// leaf-side work of one session, per arrival.
func BenchmarkAssemblerAdd(b *testing.B) {
	data := make([]byte, 8<<20)
	rand.New(rand.NewSource(1)).Read(data)
	c := New("bench", data, 1024)
	enhanced := parity.Enhance(c.Sequence(), 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		asm := NewAssembler(c.Size(), c.PacketSize())
		for _, p := range enhanced {
			asm.Add(p)
		}
		if len(asm.Missing()) != 0 {
			b.Fatal("incomplete")
		}
		if _, ok := asm.Bytes(); !ok {
			b.Fatal("no bytes")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(enhanced)), "ns/pkt")
}
