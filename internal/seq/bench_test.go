package seq

import "testing"

func BenchmarkUnion(b *testing.B) {
	x := Range(1, 2000)
	var y Sequence
	for k := int64(1); k <= 4000; k += 2 {
		y = append(y, NewData(k))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Union(x, y)
	}
}

func BenchmarkDivide(b *testing.B) {
	s := Range(1, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Divide(s, 16)
	}
}

// BenchmarkDiv takes one peer's share of the Figure-12 enhanced content
// (l = 30,000, h = 9 → 33,334 packets; H = 10), the call every leaf
// request makes.
func BenchmarkDiv(b *testing.B) {
	s := Range(1, 33334)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Div(s, 10, i%10)
	}
}

func BenchmarkIntersect(b *testing.B) {
	x := Range(1, 2000)
	y := Range(1000, 3000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Intersect(x, y)
	}
}

func BenchmarkPacketKey(b *testing.B) {
	p := NewParity([]Packet{NewData(12345), NewData(12346)}, 12345.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Key()
	}
}

// BenchmarkUnionParity unions parity-enhanced streams, the shape the
// coordination hot path sees: before identity caching every comparison
// re-joined the cover strings of both operands.
func BenchmarkUnionParity(b *testing.B) {
	mk := func(lo int64) Sequence {
		var s Sequence
		for k := lo; k < lo+2000; k += 2 {
			d1, d2 := NewData(k), NewData(k+1)
			s = append(s, d1, NewParity([]Packet{d1, d2}, MidPos(d1.Pos, d2.Pos)), d2)
		}
		return s
	}
	x, y := mk(1), mk(1001)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Union(x, y)
	}
}

func BenchmarkEqual(b *testing.B) {
	x := Range(1, 5000)
	y := Range(1, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Equal(x, y) {
			b.Fatal("sequences differ")
		}
	}
}

// BenchmarkUnionSmallIntoLarge is §3.4's merge as Figure 12 runs it at
// H = 30: a share of 11 packets into the 365 unsent packets of a stream
// (both with parities), the mean operands over a run's 2,930 merges.
func BenchmarkUnionSmallIntoLarge(b *testing.B) {
	var remainder, share Sequence
	for k := int64(1); len(remainder) < 365; k++ {
		d := NewData(k)
		switch {
		case k%34 == 0:
			share = append(share, d)
		case k%10 == 0:
			prev := remainder[len(remainder)-1]
			remainder = append(remainder, NewParity([]Packet{prev, d}, MidPos(prev.Pos, d.Pos)), d)
		default:
			remainder = append(remainder, d)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Union(remainder, share)
	}
}
