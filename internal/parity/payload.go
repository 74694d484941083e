package parity

import "crypto/subtle"

// payloads is a Recoverer's byte storage. Every payload it keeps is its
// own copy:
//
//   - A data payload is copied once, into its slot of one content-sized
//     buffer when the layout is known (NewContentRecoverer), else into an
//     append-only slab. The buffer, like the store itself, exists from
//     the first payload on: a payload-free stream (the simulator's)
//     allocates neither.
//   - A parity is held, in a recycled buffer, only while a rule can read
//     it: while a cover of its own rule is missing or a rule it covers
//     can still recover. Otherwise its bytes are its covers' XOR, all of
//     them present: a parity derived from its covers, or arriving or
//     recovered after them, is neither copied nor XORed until a recovery
//     reads it.
//   - A recovered data packet is XORed straight into its slot when its
//     rule recovers it: the rule's parity XOR the rule's other covers.
type payloads struct {
	content []byte
	filled  int // bytes written to content
	slab    []byte
	free    [][]byte // parity buffers no node holds
	// xors counts XORBytes calls, for the tests.
	xors int
}

// Content returns the content buffer of a Recoverer made by
// NewContentRecoverer once every byte of it has been written; nil and
// false before. The buffer is the Recoverer's and read-only; nothing
// writes to a slot once its packet is present.
func (r *Recoverer) Content() ([]byte, bool) {
	s := r.store
	if r.size == 0 {
		return []byte{}, true
	}
	if s == nil {
		return nil, false
	}
	if s.content == nil || s.filled != r.size {
		return nil, false
	}
	return s.content, true
}

// keep stores a copy of the payload node id arrived with: a data
// payload in its place, a parity's only if a rule can read it.
func (r *Recoverer) keep(id int32, p []byte) {
	if len(p) == 0 {
		return
	}
	if r.store == nil {
		r.store = new(payloads)
	}
	nd := &r.nodes[id]
	if nd.pkt.IsData() || r.holds(id) {
		nd.pkt.Payload = r.place(id, len(p))
		copy(nd.pkt.Payload, p)
	}
}

// recover computes the bytes of node c, which rule recovered: the
// rule's parity XOR its covers but the one at link skip, XORed straight
// into c's place. A recovered parity no rule can read gets no bytes,
// as a derived one.
func (r *Recoverer) recover(c, rule, skip int32) {
	if r.store == nil || (!r.nodes[c].pkt.IsData() && !r.holds(c)) {
		return
	}
	first, n := r.nodes[rule].first, r.nodes[rule].n
	size := r.sizeOf(rule)
	for l := first; l < first+n; l++ {
		if l != skip {
			size = max(size, r.sizeOf(r.links[l].cover))
		}
	}
	if size == 0 {
		return
	}
	dst := r.place(c, size)
	r.xorInto(dst, rule)
	for l := first; l < first+n; l++ {
		if l != skip {
			r.xorInto(dst, r.links[l].cover)
		}
	}
	r.nodes[c].pkt.Payload = dst
}

// holds reports whether present parity id must hold its own bytes: a
// cover of its rule is missing (they are what recovers it), it has no
// covers to compute them from, or a rule it covers can still recover a
// packet and would read them.
func (r *Recoverer) holds(id int32) bool {
	nd := &r.nodes[id]
	if nd.n == 0 || nd.missing > 0 {
		return true
	}
	for l := nd.covered; l != 0; l = r.links[l].next {
		if r.nodes[r.links[l].rule].missing > 0 {
			return true
		}
	}
	return false
}

// resolved runs when rule id has no missing cover: it can recover
// nothing more, so its parity and its parity covers give their buffers
// back unless something else can still read them.
func (r *Recoverer) resolved(id int32) {
	r.release(id)
	nd := &r.nodes[id]
	for l := nd.first; l < nd.first+nd.n; l++ {
		r.release(r.links[l].cover)
	}
}

// release hands back parity id's buffer if it holds one it no longer
// must; its bytes are its covers' XOR from then on.
func (r *Recoverer) release(id int32) {
	nd := &r.nodes[id]
	if nd.pkt.IsData() || nd.pkt.Payload == nil || r.holds(id) {
		return
	}
	r.store.free = append(r.store.free, nd.pkt.Payload)
	nd.pkt.Payload = nil
}

// sizeOf returns the length of node id's bytes: a parity not holding its
// own is as long as its longest cover.
func (r *Recoverer) sizeOf(id int32) int {
	nd := &r.nodes[id]
	if nd.pkt.Payload != nil || nd.pkt.IsData() || nd.n == 0 {
		return len(nd.pkt.Payload)
	}
	n := 0
	for l := nd.first; l < nd.first+nd.n; l++ {
		n = max(n, r.sizeOf(r.links[l].cover))
	}
	return n
}

// xorInto XORs node id's bytes into dst, up to the shorter length; a
// parity not holding its own contributes its covers', recursively.
func (r *Recoverer) xorInto(dst []byte, id int32) {
	nd := &r.nodes[id]
	if b := nd.pkt.Payload; b != nil || nd.pkt.IsData() || nd.n == 0 {
		if n := min(len(dst), len(b)); n > 0 {
			r.store.xors++
			subtle.XORBytes(dst[:n], dst[:n], b[:n])
		}
		return
	}
	for l := nd.first; l < nd.first+nd.n; l++ {
		r.xorInto(dst, r.links[l].cover)
	}
}

// place returns zeroed room for n bytes of node id: a data packet's slot
// (cut to n), or n bytes of the slab; a parity's buffer.
func (r *Recoverer) place(id int32, n int) []byte {
	nd := &r.nodes[id]
	if !nd.pkt.IsData() {
		return r.buffer(n)
	}
	if slot := r.slotOf(nd.pkt.Index); slot != nil {
		slot = slot[:min(n, len(slot))]
		r.store.filled += len(slot)
		return slot
	}
	return r.alloc(n)
}

// slotOf returns data packet t_k's slot in the content buffer,
// allocating the buffer on first use; nil when t_k has none.
func (r *Recoverer) slotOf(k int64) []byte {
	s := r.store
	if r.slot == 0 || k < 1 || k >= int64(len(r.dense)) {
		return nil
	}
	if s.content == nil {
		s.content = make([]byte, r.size)
	}
	lo := int(k-1) * r.slot
	hi := min(lo+r.slot, r.size)
	return s.content[lo:hi:hi]
}

// alloc returns n zero bytes of the slab, which only grows: what it
// hands out is written by its one owner only.
func (r *Recoverer) alloc(n int) []byte {
	s := r.store
	if cap(s.slab)-len(s.slab) < n {
		s.slab = make([]byte, 0, max(n, min(max(2*cap(s.slab), 4<<10), 64<<10)))
	}
	s.slab = s.slab[:len(s.slab)+n]
	return s.slab[len(s.slab)-n : len(s.slab) : len(s.slab)]
}

// buffer returns n zero bytes for a parity, reusing a released buffer
// when the last one is large enough.
func (r *Recoverer) buffer(n int) []byte {
	s := r.store
	if k := len(s.free) - 1; k >= 0 && cap(s.free[k]) >= n {
		b := s.free[k][:n]
		s.free = s.free[:k]
		clear(b)
		return b
	}
	return make([]byte, n)
}
