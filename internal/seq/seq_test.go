package seq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewDataKeyAndPos(t *testing.T) {
	p := NewData(7)
	if p.Key() != "t7" {
		t.Errorf("Key() = %q, want t7", p.Key())
	}
	if p.Pos != 7 {
		t.Errorf("Pos = %v, want 7", p.Pos)
	}
	if !p.IsData() {
		t.Error("IsData() = false, want true")
	}
}

func TestNewParityKeyNesting(t *testing.T) {
	inner := NewParity([]Packet{NewData(7), NewData(8)}, 7.5)
	if inner.Key() != "p(t7,t8)" {
		t.Errorf("inner key = %q", inner.Key())
	}
	outer := NewParity([]Packet{NewData(5), inner}, 5.5)
	if outer.Key() != "p(t5,p(t7,t8))" {
		t.Errorf("outer key = %q", outer.Key())
	}
	if outer.IsData() {
		t.Error("parity IsData() = true")
	}
}

func TestRangeAndIndices(t *testing.T) {
	s := Range(3, 6)
	want := []int64{3, 4, 5, 6}
	got := dataIndices(s)
	if len(got) != len(want) {
		t.Fatalf("DataIndices() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DataIndices() = %v, want %v", got, want)
		}
	}
	if Range(5, 4) != nil {
		t.Error("empty Range not nil")
	}
}

func TestPrefixPostfix(t *testing.T) {
	s := Range(1, 8)
	pre := s.Prefix(2) // ⟨t1,t2,t3⟩
	if !Equal(pre, fromIndices(1, 2, 3)) {
		t.Errorf("Prefix = %v", pre)
	}
	post := s.Postfix(5) // ⟨t6,t7,t8⟩
	if !Equal(post, fromIndices(6, 7, 8)) {
		t.Errorf("Postfix = %v", post)
	}
	// Mutating the views must not alias the original.
	pre[0] = NewData(99)
	if s[0].Index != 1 {
		t.Error("Prefix aliases original")
	}
}

func TestUnionPaperExample(t *testing.T) {
	// §2: pkt1 ∪ pkt2 ∪ pkt3 = ⟨t1..t8⟩ for pkt1=⟨t1,t2,t4,t5⟩,
	// pkt2=⟨t3,t6⟩, pkt3=⟨t7,t8⟩.
	u := Union(Union(fromIndices(1, 2, 4, 5), fromIndices(3, 6)), fromIndices(7, 8))
	if !Equal(u, Range(1, 8)) {
		t.Errorf("union = %v", u)
	}
}

func TestUnionDedupes(t *testing.T) {
	a := fromIndices(1, 2, 3)
	b := fromIndices(2, 3, 4)
	u := Union(a, b)
	if !Equal(u, Range(1, 4)) {
		t.Errorf("union = %v", u)
	}
}

func TestIntersectAndDisjoint(t *testing.T) {
	a := fromIndices(1, 2, 4, 5)
	b := fromIndices(2, 5, 9)
	got := Intersect(a, b)
	if !Equal(got, fromIndices(2, 5)) {
		t.Errorf("intersect = %v", got)
	}
	if disjoint(a, b) {
		t.Error("overlapping sequences reported disjoint")
	}
	if !disjoint(fromIndices(1, 3), fromIndices(2, 4)) {
		t.Error("disjoint sequences reported overlapping")
	}
}

func TestDivideRoundRobin(t *testing.T) {
	s := Range(1, 7)
	parts := Divide(s, 3)
	if !Equal(parts[0], fromIndices(1, 4, 7)) {
		t.Errorf("part0 = %v", parts[0])
	}
	if !Equal(parts[1], fromIndices(2, 5)) {
		t.Errorf("part1 = %v", parts[1])
	}
	if !Equal(parts[2], fromIndices(3, 6)) {
		t.Errorf("part2 = %v", parts[2])
	}
	for i := 0; i < 3; i++ {
		if !Equal(Div(s, 3, i), parts[i]) {
			t.Errorf("Div(%d) != Divide[%d]", i, i)
		}
	}
}

func TestDividePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Divide(s, 0) did not panic")
		}
	}()
	Divide(Range(1, 3), 0)
}

// Property: Divide partitions — subsequences are pairwise disjoint and
// their union is the original sequence.
func TestDividePartitionProperty(t *testing.T) {
	f := func(n uint8, h uint8) bool {
		l := int64(n%50) + 1
		H := int(h%8) + 1
		s := Range(1, l)
		parts := Divide(s, H)
		u := Sequence(nil)
		for i, p := range parts {
			for j := i + 1; j < len(parts); j++ {
				if !disjoint(p, parts[j]) {
					return false
				}
			}
			u = Union(u, p)
		}
		return Equal(u, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Union is commutative, associative, idempotent on random
// subsequences of a common ancestor stream.
func TestUnionAlgebraProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sub := func() Sequence {
		var s Sequence
		for k := int64(1); k <= 30; k++ {
			if rng.Intn(2) == 0 {
				s = append(s, NewData(k))
			}
		}
		return s
	}
	for trial := 0; trial < 200; trial++ {
		a, b, c := sub(), sub(), sub()
		if !Equal(Union(a, b), Union(b, a)) {
			t.Fatal("union not commutative")
		}
		if !Equal(Union(Union(a, b), c), Union(a, Union(b, c))) {
			t.Fatal("union not associative")
		}
		if !Equal(Union(a, a), a) {
			t.Fatal("union not idempotent")
		}
	}
}

func TestSortAndSorted(t *testing.T) {
	s := fromIndices(3, 1, 2)
	if sorted(s) {
		t.Error("unsorted sequence reported sorted")
	}
	s.Sort()
	if !Equal(s, fromIndices(1, 2, 3)) {
		t.Errorf("after Sort = %v", s)
	}
	if !sorted(s) {
		t.Error("sorted sequence reported unsorted")
	}
}

func TestCounts(t *testing.T) {
	s := Range(1, 4)
	s = append(s, NewParity([]Packet{s[0], s[1]}, 0.5))
	s.Sort()
	if s.CountData() != 4 || len(s) != 5 {
		t.Errorf("counts = %d data of %d", s.CountData(), len(s))
	}
}

func TestMidPos(t *testing.T) {
	if m := MidPos(1, 2); m <= 1 || m >= 2 {
		t.Errorf("MidPos(1,2) = %v", m)
	}
	if m := MidPos(1, 1); m != 1 {
		t.Errorf("MidPos degenerate = %v", m)
	}
}

func TestStringNotation(t *testing.T) {
	s := fromIndices(1, 2)
	if got := s.String(); got != "⟨t1, t2⟩" {
		t.Errorf("String() = %q", got)
	}
	if Data.String() != "data" || Parity.String() != "parity" {
		t.Error("Kind.String wrong")
	}
}

// fromIndices builds the data packet sequence ⟨t_i : i ∈ idx⟩.
func fromIndices(idx ...int64) Sequence {
	s := make(Sequence, len(idx))
	for i, k := range idx {
		s[i] = NewData(k)
	}
	return s
}

// sorted reports whether s is in canonical order.
func sorted(s Sequence) bool {
	return sort.SliceIsSorted(s, func(i, j int) bool { return Less(&s[i], &s[j]) })
}

// dataIndices returns the indices of the data packets of s, in order.
func dataIndices(s Sequence) []int64 {
	var out []int64
	for _, p := range s {
		if p.IsData() {
			out = append(out, p.Index)
		}
	}
	return out
}

// disjoint reports whether a and b share no packet (pkt_i ∩ pkt_j = φ,
// the condition §3.2 imposes on subsequences).
func disjoint(a, b Sequence) bool { return len(Intersect(a, b)) == 0 }

// indexOfKey returns the offset of the packet with the given identity
// key in s, or -1.
func indexOfKey(s Sequence, key string) int {
	for i, p := range s {
		if p.Key() == key {
			return i
		}
	}
	return -1
}
