package parity

import (
	"fmt"
	"math/rand"
	"testing"

	"p2pmss/internal/seq"
)

func BenchmarkEnhance(b *testing.B) {
	for _, h := range []int{1, 4, 16} {
		b.Run(name("h", h), func(b *testing.B) {
			s := seq.Range(1, 10000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Enhance(s, h)
			}
		})
	}
}

func BenchmarkXOR(b *testing.B) {
	bufs := make([][]byte, 8)
	for i := range bufs {
		bufs[i] = make([]byte, 1024)
		rand.New(rand.NewSource(int64(i))).Read(bufs[i])
	}
	b.SetBytes(8 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xor(bufs)
	}
}

// BenchmarkRecoverWithLoss feeds an h = 4 enhanced content with one packet
// of every recovery segment lost and reads back every lost data packet,
// so the recovery XOR is timed. ns/pkt must not grow with the content
// length l: recovery work per arrival is constant.
func BenchmarkRecoverWithLoss(b *testing.B) {
	for _, l := range []int64{1 << 10, 8 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dk", l>>10), func(b *testing.B) {
			var s seq.Sequence
			rng := rand.New(rand.NewSource(1))
			for k := int64(1); k <= l; k++ {
				buf := make([]byte, 64)
				rng.Read(buf)
				s = append(s, seq.NewDataPayload(k, buf))
			}
			e := Enhance(s, 4)
			var lost []int64
			for j, p := range e {
				if j%5 == 2 && p.IsData() {
					lost = append(lost, p.Index)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := NewRecoverer()
				for j, p := range e {
					if j%5 != 2 { // drop one packet per segment
						r.Add(p)
					}
				}
				for _, k := range lost {
					if p, ok := dataPayload(r, k); !ok || len(p) != 64 {
						b.Fatalf("t%d not recovered", k)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(e)), "ns/pkt")
		})
	}
}

func name(k string, v int) string {
	return k + "=" + string(rune('0'+v/10)) + string(rune('0'+v%10))
}
