package des

// Records and slices by the block. A simulated run takes small records
// by the thousand — in-flight messages, timer and switch events, the
// engine's effects, messages and peers — and short slices by the peer:
// children lists, selection buffers, view bit vectors. Allocating each
// on its own made a sim run's allocation count grow with its in-flight
// peak and its peer count. FreeList and Slab allocate per block instead.
//
// Blocks grow, they do not start full: a list's first block holds one
// record and a slab's first block exactly its first carve, then each
// block doubles up to a cap, so a list that only ever serves a handful
// of records allocates about what it would one record at a time.

// maxBlock is how many records a FreeList block holds at most.
const maxBlock = 32

// maxSlab is how many elements a Slab block holds at most, unless one
// carve needs more.
const maxSlab = 1024

// FreeList is a LIFO free list of T records that allocates per block:
// when no record is free, Take carves a block of 1, 2, 4 … up to
// maxBlock records, each twice the last. The list keeps the next block's
// size as its own capacity: a block of k leaves room for 2k records,
// what the list holds once they all come back. The zero value is an
// empty list. Like the rest of the package it is not safe for concurrent
// use.
type FreeList[T any] struct{ free []*T }

// Take returns the record Put most recently, or one never taken before,
// zeroed. A recycled record holds what it held when it was Put: the
// caller overwrites it.
func (l *FreeList[T]) Take() *T {
	if len(l.free) == 0 {
		b := make([]T, min(max(1, cap(l.free)), maxBlock))
		if cap(l.free) < 2*len(b) {
			l.free = make([]*T, 0, 2*len(b))
		}
		for i := range b {
			l.free = append(l.free, &b[len(b)-1-i]) // b[0] is taken first
		}
	}
	n := len(l.free) - 1
	v := l.free[n]
	l.free = l.free[:n]
	return v
}

// Put returns v to the list; the next Take returns it.
func (l *FreeList[T]) Put(v *T) { l.free = append(l.free, v) }

// Slab carves short slices out of shared blocks. A carve's capacity is
// exact (a full slice expression), so an append past it reallocates and
// never writes into the next carve. A slab suits slices that live as
// long as their owner, a peer of one run; Reset hands the elements out
// again, to the next run's peers. The zero value is an empty slab.
type Slab[T any] struct {
	// blocks are every block the slab made, in carving order; a block's
	// length is what is carved of it. Carves come from blocks[cur].
	blocks [][]T
	cur    int
}

// Carve returns an empty slice with room for exactly n elements, all
// zero. When the current block has less than n left, carving moves on
// to the next block with room for n that an earlier round made, or else
// starts a new one of twice the last block's size, up to maxSlab, and
// at least n; what the blocks passed over had left stays unused.
func (s *Slab[T]) Carve(n int) []T {
	for ; s.cur < len(s.blocks); s.cur++ {
		if b := s.blocks[s.cur]; len(b)+n <= cap(b) {
			s.blocks[s.cur] = b[:len(b)+n]
			return b[len(b) : len(b) : len(b)+n]
		}
	}
	last := 0
	if k := len(s.blocks); k > 0 {
		last = cap(s.blocks[k-1])
	}
	s.blocks = append(s.blocks, make([]T, n, max(n, min(2*last, maxSlab))))
	return s.blocks[s.cur][:0:n]
}

// Reset takes every carve back, for a simulated run's arena to carve the
// next run's lists from: it keeps every block, so carving what the last
// round carved passes through the same blocks and makes none, and it
// clears only what was carved of them, so a small run after a large one
// does not zero the large one's blocks. A slice carved before the Reset
// must be dropped by then, as its elements are carved again.
func (s *Slab[T]) Reset() {
	for i := range s.blocks[:min(s.cur+1, len(s.blocks))] {
		clear(s.blocks[i])
		s.blocks[i] = s.blocks[i][:0]
	}
	s.cur = 0
}
