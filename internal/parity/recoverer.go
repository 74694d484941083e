package parity

import (
	"slices"

	"p2pmss/internal/seq"
)

// Recoverer reconstructs lost packets at the leaf peer from received data
// and parity packets. Add every received packet; recovery is incremental.
// A packet is "present" once received or derived.
//
// Recovery rules: if a parity packet p(a,b,…,z) is present and exactly one
// of its covers is missing, the missing packet's payload is the XOR of the
// parity payload with the present covers' payloads; if every cover of a
// known parity is present, the parity itself is rebuilt. Derived packets
// recursively enable further recovery, so nested parities such as
// t⟨5,⟨7,8⟩⟩ resolve. The present set after each Add is the closure of
// these rules over what was received — a unique set, whatever order the
// rules are applied in.
//
// Every identity is interned once to a node; each parity node keeps a
// count of its missing covers and each node the list of parities covering
// it. An arrival decrements only the counters of the parities covering the
// new packet and derives only where a counter reaches 1 (parity present)
// or 0 (parity absent), so the work per arrival is constant, and the
// derivation order is a function of the arrival order alone.
//
// The Recoverer copies every payload it keeps, so a caller may reuse a
// packet's bytes once Add returns; presence and the counters never wait
// for bytes. payload.go has the storage: each data payload is copied
// once, into its place, and a recovered one is XORed into its place.
type Recoverer struct {
	// nodes[0] and links[0] are unused: id 0 means "none", so the zero
	// value of every index field is valid and lookups of unknown
	// identities land on a node that is not present.
	nodes []node
	links []link
	// dense maps content index k to its node for 0 <= k < len(dense)
	// (sized once, from the constructor's hint); sparse holds the data
	// packets outside that range. ids maps a parity identity's hash to
	// its node, which chains other identities with that hash (next).
	dense  []int32
	sparse map[int64]int32
	ids    map[uint64]int32
	// work is the stack of parity nodes whose counter or own presence
	// changed and that drain has yet to check.
	work []int32

	// size and slot are the content layout NewContentRecoverer gives;
	// slot is 0 without one. store holds the payloads (payload.go), nil
	// until the first non-empty one: a payload-free recoverer (the
	// simulator's) carries none.
	size, slot int
	store      *payloads

	present   int
	recovered int
	// onData, when set, is invoked with the content index of every data
	// packet that becomes present (received or recovered), exactly once
	// per index — the incremental feed for missing-set tracking.
	onData func(k int64)
}

// node is one packet identity.
type node struct {
	// pkt is the identity — the content index of a data node, the
	// identity node of a parity node — and, once present, the bytes the
	// Recoverer holds for it (payload.go says when it holds none).
	pkt     seq.Packet
	covered int32 // first link whose cover is this node
	// A parity node's covers are links[first:first+n]; missing counts
	// those whose cover is not present. n is 0 for every other node.
	first, n, missing int32
	next              int32 // next parity node whose identity has pkt's hash
	present           bool  // received or derived
	received          bool
}

// link records that parity node rule covers node cover; next chains the
// links sharing a cover. A cover a parity names twice has two links.
type link struct {
	cover, rule, next int32
}

// NewRecoverer returns an empty Recoverer.
func NewRecoverer() *Recoverer { return NewSizedRecoverer(0) }

// NewContentRecoverer returns an empty Recoverer for a content of size
// bytes in packets of packetSize: sized as NewSizedRecoverer, and with
// data payloads copied into their slots of one content buffer (Content).
func NewContentRecoverer(size, packetSize int) *Recoverer {
	r := NewSizedRecoverer(Packets(size, packetSize))
	r.size, r.slot = max(size, 0), max(packetSize, 0)
	return r
}

// Packets is how many packets of packetSize bytes a content of size
// bytes takes: 0 when either is not positive.
func Packets(size, packetSize int) int {
	if size <= 0 || packetSize <= 0 {
		return 0
	}
	return (size + packetSize - 1) / packetSize
}

// NewSizedRecoverer returns an empty Recoverer with storage sized for a
// content of the given number of data packets: indices 1..dataPackets
// are looked up in a slice instead of a map.
func NewSizedRecoverer(dataPackets int) *Recoverer {
	n := max(dataPackets, 0)
	r := &Recoverer{
		// A content enhanced once with h = 2 has n/2 parity packets and
		// n cover links; deeper or denser enhancement grows the slices.
		nodes:  make([]node, 1, 1+n+n/2),
		links:  make([]link, 1, 1+n),
		ids:    make(map[uint64]int32, n/2),
		sparse: make(map[int64]int32),
	}
	if n > 0 {
		r.dense = make([]int32, n+1)
	}
	return r
}

// Reset empties r for a content of size bytes in packets of packetSize,
// as NewContentRecoverer makes one, in the storage r has; the OnData hook
// stays. The simulator keeps its leaf's assembler, and so this
// recoverer, from run to run. A Reset to size 0 leaves r holding no
// packet of what it held before.
func (r *Recoverer) Reset(size, packetSize int) {
	n := Packets(size, packetSize)
	clear(r.nodes)
	clear(r.links)
	r.nodes, r.links = r.nodes[:1], r.links[:1]
	clear(r.ids)
	clear(r.sparse)
	clear(r.dense) // past its length, an earlier Reset cleared it
	r.dense = r.dense[:0]
	if n > 0 {
		r.dense = slices.Grow(r.dense, n+1)[:n+1]
	}
	*r = Recoverer{
		nodes: r.nodes, links: r.links, dense: r.dense, sparse: r.sparse, ids: r.ids, work: r.work[:0],
		size: max(size, 0), slot: max(packetSize, 0), onData: r.onData,
	}
}

// Add records a received packet and performs any recovery it enables. It
// reports whether this is the first receipt of the packet's identity; a
// packet derived before its own arrival is still new when it arrives.
// Add keeps no reference to p.Payload.
func (r *Recoverer) Add(p seq.Packet) bool {
	id := r.intern(p)
	nd := &r.nodes[id]
	if nd.received {
		return false
	}
	nd.received = true
	if !nd.present {
		r.markPresent(id)
		r.keep(id, p.Payload)
	}
	r.drain()
	return true
}

// OnData registers fn to be called with the content index of every data
// packet that becomes present from now on (received or recovered), once
// per index. Pass nil to clear. fn must not call back into the Recoverer.
func (r *Recoverer) OnData(fn func(k int64)) { r.onData = fn }

// HasData reports whether content data packet t_k is present.
func (r *Recoverer) HasData(k int64) bool {
	return r.nodes[r.lookupData(k)].present
}

// Recovered returns how many packets have been derived (not directly
// received) so far.
func (r *Recoverer) Recovered() int { return r.recovered }

// lookupData returns the node of data packet t_k, or 0.
func (r *Recoverer) lookupData(k int64) int32 {
	if uint64(k) < uint64(len(r.dense)) {
		return r.dense[k]
	}
	return r.sparse[k]
}

// internData returns the node of data packet t_k, creating it if new.
func (r *Recoverer) internData(k int64) int32 {
	id := r.lookupData(k)
	if id != 0 {
		return id
	}
	id = r.newNode()
	nd := &r.nodes[id]
	nd.pkt.Index = k
	if uint64(k) < uint64(len(r.dense)) {
		r.dense[k] = id
	} else {
		r.sparse[k] = id
	}
	return id
}

// lookup returns the node of p's identity, or 0.
func (r *Recoverer) lookup(p *seq.Packet) int32 {
	if p.IsData() {
		return r.lookupData(p.Index)
	}
	id := r.ids[p.Hash()]
	for id != 0 && !seq.SameIdentity(&r.nodes[id].pkt, p) {
		id = r.nodes[id].next
	}
	return id
}

// intern returns the node of p's identity, creating it if new. A new
// parity registers its recovery rule and, recursively, those of its
// nested parity covers.
func (r *Recoverer) intern(p seq.Packet) int32 {
	if p.IsData() {
		return r.internData(p.Index)
	}
	if id := r.lookup(&p); id != 0 {
		return id
	}
	id, h := r.newNode(), p.Hash()
	nd := &r.nodes[id]
	nd.pkt, nd.next = p, r.ids[h]
	nd.pkt.Payload = nil // stored, as a copy, once present
	r.ids[h] = id
	n := p.NumCovers()
	if n == 0 {
		return id
	}
	// The rule's links are reserved before its covers are interned, so
	// they stay contiguous; nothing holds a pointer across a recursive
	// call, which may grow nodes and links. They are grown, not appended
	// from a make, which a race-detector build allocates once per parity.
	first := len(r.links)
	r.links = slices.Grow(r.links, n)[:first+n]
	clear(r.links[first:])
	missing := int32(0)
	for i := 0; i < n; i++ {
		c, l := r.intern(p.Cover(i)), int32(first+i)
		r.links[l] = link{cover: c, rule: id, next: r.nodes[c].covered}
		r.nodes[c].covered = l
		if !r.nodes[c].present {
			missing++
		}
	}
	nd = &r.nodes[id]
	nd.first, nd.n, nd.missing = int32(first), int32(n), missing
	// A nested parity first seen with every cover already present can be
	// rebuilt at once.
	r.work = append(r.work, id)
	return id
}

func (r *Recoverer) newNode() int32 {
	r.nodes = append(r.nodes, node{})
	return int32(len(r.nodes) - 1)
}

// markPresent is the single point where a node becomes present: it keeps
// the counters, fires the OnData hook, and queues every parity whose
// state the change touched. The node's bytes are stored by the caller.
func (r *Recoverer) markPresent(id int32) {
	nd := &r.nodes[id]
	nd.present = true
	r.present++
	if nd.pkt.IsData() && r.onData != nil {
		r.onData(nd.pkt.Index)
	}
	for l := nd.covered; l != 0; l = r.links[l].next {
		rule := r.links[l].rule
		r.nodes[rule].missing--
		r.work = append(r.work, rule)
	}
	if nd.n > 0 {
		r.work = append(r.work, id)
	}
}

// drain checks the queued parities until no further packet can be
// derived. A recovered packet's bytes are computed at once (recover); a
// rule with no missing cover gives back the buffers no rule can read any
// more.
func (r *Recoverer) drain() {
	for len(r.work) > 0 {
		id := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		rule := &r.nodes[id]
		switch {
		case rule.present && rule.missing == 1:
			for l := rule.first; l < rule.first+rule.n; l++ {
				if c := r.links[l].cover; !r.nodes[c].present {
					r.recovered++
					r.markPresent(c)
					r.recover(c, id, l)
					break
				}
			}
		case rule.missing == 0:
			if !rule.present {
				// Its bytes are its covers' XOR, computed if a recovery
				// ever reads them.
				r.recovered++
				r.markPresent(id)
			}
			r.resolved(id)
		}
	}
}
