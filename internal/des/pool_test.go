package des

import (
	"testing"
	"unsafe"
)

type rec struct{ a, b int }

// TestFreeListBlocks: a list that is only taken from carves blocks of
// 1, 2, 4 … maxBlock records and then stays at maxBlock; the records of
// one block are handed out in order, each zero.
func TestFreeListBlocks(t *testing.T) {
	var l FreeList[rec]
	want := []int{1, 2, 4, 8, 16, 32, 32, 32}
	for i, size := range want {
		first := l.Take()
		if got := len(l.free) + 1; got != size {
			t.Fatalf("block %d holds %d records, want %d", i, got, size)
		}
		if *first != (rec{}) {
			t.Fatalf("block %d: a new record is %+v, not zero", i, *first)
		}
		prev := first
		for j := 1; j < size; j++ {
			r := l.Take()
			if d := uintptr(unsafe.Pointer(r)) - uintptr(unsafe.Pointer(prev)); d != unsafe.Sizeof(rec{}) {
				t.Fatalf("block %d: record %d is %d bytes after the one before, want the next record of the block", i, j, d)
			}
			prev = r
		}
		if len(l.free) != 0 {
			t.Fatalf("block %d: %d records left after taking the whole block", i, len(l.free))
		}
	}
}

// TestFreeListReuseIsLIFO: a record Put is the next one Take returns,
// as it was left, and records come back in the reverse order of their
// release, before any record of a new block.
func TestFreeListReuseIsLIFO(t *testing.T) {
	var l FreeList[rec]
	a, b, c := l.Take(), l.Take(), l.Take()
	a.a, b.a, c.a = 1, 2, 3
	l.Put(a)
	if got := l.Take(); got != a || got.a != 1 {
		t.Fatalf("Take after Put(a) returned %p (%+v), want a %p as it was left", got, *got, a)
	}
	l.Put(a)
	l.Put(b)
	l.Put(c)
	for i, want := range []*rec{c, b, a} {
		if got := l.Take(); got != want {
			t.Fatalf("Take %d returned %p, want %p (released in reverse)", i, got, want)
		}
	}
	fresh := l.Take()
	for _, r := range []*rec{a, b, c} {
		if fresh == r {
			t.Fatalf("Take with nothing released returned a record still taken")
		}
	}
}

// TestSlabCarves: each carve is empty, zero and exactly as roomy as
// asked; an append past it reallocates and leaves the next carve as it
// was; blocks start at the first carve's size and double up to maxSlab,
// unless one carve needs more.
func TestSlabCarves(t *testing.T) {
	var s Slab[int]
	if c := s.Carve(2); len(c) != 0 || cap(c) != 2 || cap(s.block) != 2 {
		t.Fatalf("the first carve has len/cap %d/%d in a block of %d, want 0/2 in a block of 2", len(c), cap(c), cap(s.block))
	}
	a := s.Carve(3) // opens a block of 4
	b := s.Carve(1) // the rest of it, right after a
	if len(a) != 0 || cap(a) != 3 || len(b) != 0 || cap(b) != 1 || cap(s.block) != 4 {
		t.Fatalf("carves have len/cap %d/%d and %d/%d in a block of %d, want 0/3 and 0/1 in a block of 4",
			len(a), cap(a), len(b), cap(b), cap(s.block))
	}
	if d := uintptr(unsafe.Pointer(&b[:1][0])) - uintptr(unsafe.Pointer(&a[:3][0])); d != 3*unsafe.Sizeof(0) {
		t.Fatalf("the second carve starts %d bytes after the first, want right after its 3 elements", d)
	}
	b = append(b, 7)
	a = append(a, 1, 2, 3, 4)
	if b[0] != 7 {
		t.Fatalf("an append past the carve before wrote into this one: %v", b)
	}
	for i, v := range a {
		if v != i+1 {
			t.Fatalf("the carve appended past holds %v", a)
		}
	}
	// A carve one longer than what is left forces a new block each time.
	s = Slab[int]{}
	var sizes []int
	for want := 1; len(sizes) < 13; want = min(2*want, maxSlab) {
		s.Carve(cap(s.block) - len(s.block) + 1)
		if sizes = append(sizes, cap(s.block)); cap(s.block) != want {
			t.Fatalf("block sizes %v, want each twice the last up to %d", sizes, maxSlab)
		}
	}
	if big := s.Carve(5000); cap(big) != 5000 || cap(s.block) != 5000 {
		t.Fatalf("a carve of 5000 got cap %d from a block of %d", cap(big), cap(s.block))
	}
}
