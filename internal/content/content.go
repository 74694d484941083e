// Package content maps multimedia content bytes to and from the packet
// model of §2: a content is decomposed into a sequence of fixed-size
// packets t_1 … t_l, and an Assembler reconstructs the original bytes at
// the leaf peer from (possibly reordered, duplicated, parity-recovered)
// packet arrivals.
package content

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"

	"p2pmss/internal/parity"
	"p2pmss/internal/seq"
)

// Content is a multimedia content held by a contents peer. Its bytes are
// immutable after New; what is derived from them (see Enhanced) is built
// lazily and shared by every session that serves the content.
type Content struct {
	id         string
	data       []byte
	packetSize int

	mu sync.Mutex
	// enhanced caches Esq(content, h) per parity interval h, at most
	// maxIntervals of them. The sequences are read-only once stored.
	enhanced map[int]seq.Sequence
}

// maxIntervals bounds how many parity intervals one content caches its
// enhanced sequence for. The interval is chosen by the requesting leaf,
// so without a bound a remote party could grow a holder's memory by
// size/h per distinct h it names; past the bound a request is served by
// deriving the sequence afresh, as every request was before the cache.
const maxIntervals = 4

// New wraps data as a content with the given packet size. The ID defaults
// to a digest of the data when empty.
func New(id string, data []byte, packetSize int) *Content {
	if packetSize <= 0 {
		panic(fmt.Sprintf("content: packet size %d must be positive", packetSize))
	}
	if id == "" {
		sum := sha256.Sum256(data)
		id = hex.EncodeToString(sum[:8])
	}
	return &Content{id: id, data: data, packetSize: packetSize}
}

// ID returns the content identifier.
func (c *Content) ID() string { return c.id }

// Size returns the content length in bytes.
func (c *Content) Size() int { return len(c.data) }

// PacketSize returns the packet payload size in bytes.
func (c *Content) PacketSize() int { return c.packetSize }

// NumPackets returns l, the number of packets in the sequence.
func (c *Content) NumPackets() int64 {
	if len(c.data) == 0 {
		return 0
	}
	return int64((len(c.data) + c.packetSize - 1) / c.packetSize)
}

// Payload returns the bytes of data packet t_k (1-based), aliasing the
// content; nil when the content has no such packet.
func (c *Content) Payload(k int64) []byte {
	if k < 1 || k > c.NumPackets() {
		return nil
	}
	lo := int(k-1) * c.packetSize
	return c.data[lo:min(lo+c.packetSize, len(c.data))]
}

// Packet returns data packet t_k (1-based) with its payload slice.
func (c *Content) Packet(k int64) seq.Packet {
	if k < 1 || k > c.NumPackets() {
		panic(fmt.Sprintf("content: packet %d outside 1..%d", k, c.NumPackets()))
	}
	return seq.NewDataPayload(k, c.Payload(k))
}

// Sequence returns the full payload-backed packet sequence ⟨t_1 … t_l⟩.
func (c *Content) Sequence() seq.Sequence {
	l := c.NumPackets()
	s := make(seq.Sequence, 0, l)
	for k := int64(1); k <= l; k++ {
		s = append(s, c.Packet(k))
	}
	return s
}

// Enhanced returns [pkt]^h = Esq(content, h) (§3.2) as the schedule a
// serving peer divides and hands off: payload-free, the value
// parity.Enhance(seq.Range(1, l), h) returns — the simulator's sequence —
// derived once per content and interval and then shared. The result is
// read-only, so callers take what they need by value (seq.Div, Clone)
// and never write through it; a packet's bytes are written when it is
// sent (XORPayload). Once maxIntervals intervals are cached, any other h
// is derived afresh on every call and not kept.
func (c *Content) Enhanced(h int) seq.Sequence {
	if h <= 0 {
		panic(fmt.Sprintf("content: Enhanced interval h=%d must be positive", h))
	}
	c.mu.Lock()
	s, ok := c.enhanced[h]
	if !ok && len(c.enhanced) < maxIntervals {
		// Built under the lock: concurrent first requests wait for one
		// build instead of each making their own.
		if c.enhanced == nil {
			c.enhanced = make(map[int]seq.Sequence, maxIntervals)
		}
		s, ok = c.esq(h), true
		c.enhanced[h] = s
	}
	c.mu.Unlock()
	if !ok {
		s = c.esq(h)
	}
	return s
}

// esq derives the payload-free Esq(content, h).
func (c *Content) esq(h int) seq.Sequence { return parity.Enhance(seq.Range(1, c.NumPackets()), h) }

// XORPayload XORs the payload of packet p into buf, first extending buf
// with zeros to the payload's length, and returns buf: into an empty buf
// it writes p's payload. A data packet's bytes are the content's (none
// for an index outside 1..l); a parity's are the XOR of the packets it
// covers, recursively, since re-enhancement at each coordination level
// nests parity over parity and what a nested parity covers depends on
// the session's hand-off marks, not on the content alone. It allocates
// only when buf must grow.
func (c *Content) XORPayload(buf []byte, p seq.Packet) []byte {
	if !p.IsData() {
		for i := 0; i < p.NumCovers(); i++ {
			buf = c.XORPayload(buf, p.Cover(i))
		}
		return buf
	}
	pl := c.Payload(p.Index)
	if n := len(buf); len(pl) > n {
		buf = slices.Grow(buf, len(pl)-n)[:len(pl)]
		clear(buf[n:])
	}
	subtle.XORBytes(buf, buf, pl)
	return buf
}

// Assembler reconstructs content bytes at a leaf peer. Feed it every
// received packet (data or parity, any order, duplicates fine); parity
// recovery runs automatically.
type Assembler struct {
	// recov keeps the content: each data payload is copied once, into its
	// slot of one buffer allocated on the first non-empty payload, so an
	// assembler fed payload-free packets (the simulator's) allocates none.
	recov *parity.Recoverer
	// loss is the missing set, fed incrementally from the recoverer's
	// data hook: the leaf consults Have around every arrival, and a
	// per-arrival scan of all l packets made delivery O(l²).
	loss *parity.LossDetector
}

// NewAssembler prepares reassembly of a content with the given byte size
// and packet size.
func NewAssembler(size, packetSize int) *Assembler {
	if packetSize <= 0 {
		panic(fmt.Sprintf("content: packet size %d must be positive", packetSize))
	}
	n := int64(0)
	if size > 0 {
		n = int64((size + packetSize - 1) / packetSize)
	}
	a := &Assembler{
		recov: parity.NewContentRecoverer(size, packetSize), loss: parity.NewLossDetector(int(n)),
	}
	// Out-of-range indices (a peer serving a different content) do not
	// count toward completion; the detector ignores them.
	a.recov.OnData(a.loss.Present)
	return a
}

// Add feeds one received packet and reports whether it is the first
// receipt of that packet (false for a duplicate delivery). It keeps no
// reference to p.Payload: a data payload is copied into its place in the
// content, a parity's only while a recovery may still read it.
func (a *Assembler) Add(p seq.Packet) bool { return a.recov.Add(p) }

// Detector returns the assembler's missing set, which a leaf arms as its
// loss detector and feeds every arrival after Add.
func (a *Assembler) Detector() *parity.LossDetector { return a.loss }

// Have returns how many of the content's data packets are present
// (received or recovered). O(1): maintained incrementally as packets
// arrive or are derived.
func (a *Assembler) Have() int64 { return a.loss.Have() }

// Missing lists the content indices still absent, in O(|missing|).
func (a *Assembler) Missing() []int64 { return a.loss.Missing() }

// Complete reports whether every data packet is present.
func (a *Assembler) Complete() bool { return a.loss.Complete() }

// HasData reports whether data packet t_k is present.
func (a *Assembler) HasData(k int64) bool { return a.recov.HasData(k) }

// Recovered returns how many packets parity recovery derived.
func (a *Assembler) Recovered() int { return a.recov.Recovered() }

// Bytes returns the content. ok is false while packets are missing, or
// when payloads fell short of filling it (a corrupt or payload-free
// stream). The result is the assembler's own buffer, not a copy: it is
// read-only, and nothing writes to it once the content is complete.
func (a *Assembler) Bytes() (data []byte, ok bool) {
	if !a.Complete() {
		return nil, false
	}
	return a.recov.Content()
}
