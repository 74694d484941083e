// Package seq implements the packet-sequence algebra of Section 2 of the
// paper: packets (data and XOR-parity), ordered packet sequences, and the
// operations the coordination protocols are defined in terms of — prefix
// pkt⟨t], postfix pkt[t⟩, union, intersection, and round-robin division
// into per-peer subsequences.
//
// A multimedia content is a sequence of data packets t_1 … t_l. Parity
// packets are created by the parity package and cover a set of other
// packets (possibly parity packets themselves, since subsequences are
// re-enhanced at each coordination level, cf. §3.6's t⟨5,⟨7,8⟩⟩).
//
// Ordering. Every packet carries a Pos value fixing its place in the
// stream a peer transmits. Data packet t_k has Pos k; a parity packet
// inserted between two packets gets the midpoint of their positions, so
// sequences derived from a common ancestor interleave consistently and
// Union can merge them by position.
//
// Ownership. A Sequence is immutable once shared: after it has been
// handed to the engine (in an event or a Snapshot), put in a message or
// an effect, or installed in a transmitter, nobody writes it again —
// neither its packets nor the spare capacity behind them. Every
// operation here that returns a Sequence allocates its result once and
// writes to no argument, so holders may alias freely (s[i:] of a live
// stream is a valid operand) and nobody needs a defensive Clone. Sort is
// the one in-place operation; it is for a sequence still private to its
// builder.
package seq

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind distinguishes content data packets from XOR parity packets.
type Kind uint8

const (
	// Data is an original content packet t_k.
	Data Kind = iota
	// Parity is an XOR parity packet covering a recovery segment.
	Parity
)

// String returns "data" or "parity".
func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case Parity:
		return "parity"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Packet is the unit of transmission in the MSS model.
//
// The zero value is not a valid packet; construct packets with NewData and
// NewParity so identity and position are consistent.
type Packet struct {
	// Kind is Data or Parity.
	Kind Kind
	// Index is the 1-based content index of a data packet (t_Index).
	// Zero for parity packets.
	Index int64
	// Covers holds the identity keys of the packets a parity packet
	// protects, in stream order. Nil for data packets.
	Covers []string
	// Pos is the packet's position in the transmission stream. Data
	// packet t_k has Pos k; parity packets carry fractional positions.
	Pos float64
	// Payload is the packet body. Experiments that only count packets
	// leave it nil; the content and live layers fill it in.
	Payload []byte
	// key caches the identity string so the §2 set algebra never
	// re-derives it on the hot path. Unexported (and so absent from
	// serialized packets); Key() falls back to computing it for packets
	// decoded from the wire or built as struct literals.
	key string
}

// NewData returns the content data packet t_index (1-based).
func NewData(index int64) Packet {
	p := Packet{Kind: Data, Index: index, Pos: float64(index)}
	p.key = computeKey(p)
	return p
}

// NewDataPayload returns t_index carrying the given payload.
func NewDataPayload(index int64, payload []byte) Packet {
	p := NewData(index)
	p.Payload = payload
	return p
}

// NewParity returns a parity packet covering the given packets, positioned
// at pos. The covered packets' keys are recorded in stream order.
func NewParity(covered []Packet, pos float64) Packet {
	keys := make([]string, len(covered))
	for i, c := range covered {
		keys[i] = c.Key()
	}
	p := Packet{Kind: Parity, Covers: keys, Pos: pos}
	p.key = computeKey(p)
	return p
}

// Key returns the packet's identity: "t<k>" for data packet t_k and
// "p(<keys>)" for a parity packet, matching the paper's t⟨…⟩ notation.
// Two packets with equal keys carry the same bytes. Packets built with
// NewData/NewParity return a cached string; others compute it.
func (p Packet) Key() string { return idOf(&p) }

// computeKey derives the identity string from the packet's fields.
func computeKey(p Packet) string {
	if p.Kind == Data {
		return "t" + strconv.FormatInt(p.Index, 10)
	}
	return "p(" + strings.Join(p.Covers, ",") + ")"
}

// SameIdentity reports whether a and b are the same packet (equal
// identity keys) without building key strings: data packets compare by
// index, parity packets by their cached keys. It takes pointers so merge
// loops compare elements of their operands in place instead of copying
// two 88-byte structs per comparison.
func SameIdentity(a, b *Packet) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind == Data {
		return a.Index == b.Index
	}
	return idOf(a) == idOf(b)
}

// CompareIdentity orders packets by identity — data before parity, data
// packets by index, parity packets by identity key — for sorting and
// searching by identity. It is 0 exactly when SameIdentity holds, and
// builds no key string for a packet that has one cached.
func CompareIdentity(a, b *Packet) int {
	switch {
	case a.Kind != b.Kind:
		return cmp.Compare(a.Kind, b.Kind)
	case a.Kind == Data:
		return cmp.Compare(a.Index, b.Index)
	}
	return strings.Compare(idOf(a), idOf(b))
}

// idOf is Key on a packet left where it is.
func idOf(p *Packet) string {
	if p.key != "" {
		return p.key
	}
	return computeKey(*p)
}

// IsData reports whether p is a content data packet.
func (p Packet) IsData() bool { return p.Kind == Data }

// String renders the packet in the paper's notation.
func (p Packet) String() string { return p.Key() }

// Sequence is an ordered sequence of packets, sorted by Pos (ties broken
// by identity key so ordering is total and deterministic).
type Sequence []Packet

// FromIndices builds the data packet sequence ⟨t_i : i ∈ idx⟩.
func FromIndices(idx ...int64) Sequence {
	s := make(Sequence, len(idx))
	for i, k := range idx {
		s[i] = NewData(k)
	}
	return s
}

// Range returns the content sequence ⟨t_lo, …, t_hi⟩ inclusive.
func Range(lo, hi int64) Sequence {
	if hi < lo {
		return nil
	}
	s := make(Sequence, 0, hi-lo+1)
	for k := lo; k <= hi; k++ {
		s = append(s, NewData(k))
	}
	return s
}

// Less reports whether a precedes b in canonical order: by position,
// then identity key.
func Less(a, b *Packet) bool {
	if a.Pos != b.Pos {
		return a.Pos < b.Pos
	}
	return idOf(a) < idOf(b)
}

// Sort sorts the sequence in place into canonical order.
func (s Sequence) Sort() {
	sort.Slice(s, func(i, j int) bool { return Less(&s[i], &s[j]) })
}

// Sorted reports whether the sequence is in canonical order.
func (s Sequence) Sorted() bool {
	return sort.SliceIsSorted(s, func(i, j int) bool { return Less(&s[i], &s[j]) })
}

// Clone returns a copy of the sequence sharing packet payloads.
func (s Sequence) Clone() Sequence {
	c := make(Sequence, len(s))
	copy(c, s)
	return c
}

// Keys returns the identity keys of all packets in order.
func (s Sequence) Keys() []string {
	ks := make([]string, len(s))
	for i, p := range s {
		ks[i] = p.Key()
	}
	return ks
}

// String renders the sequence in the paper's ⟨…⟩ notation.
func (s Sequence) String() string {
	return "⟨" + strings.Join(s.Keys(), ", ") + "⟩"
}

// DataIndices returns the content indices of the data packets in s, in order.
func (s Sequence) DataIndices() []int64 {
	var out []int64
	for _, p := range s {
		if p.IsData() {
			out = append(out, p.Index)
		}
	}
	return out
}

// CountData returns the number of data packets in s.
func (s Sequence) CountData() int {
	n := 0
	for _, p := range s {
		if p.IsData() {
			n++
		}
	}
	return n
}

// CountParity returns the number of parity packets in s.
func (s Sequence) CountParity() int { return len(s) - s.CountData() }

// IndexOfData returns the offset of data packet t_k in s, or -1.
func (s Sequence) IndexOfData(k int64) int {
	for i, p := range s {
		if p.IsData() && p.Index == k {
			return i
		}
	}
	return -1
}

// IndexOfKey returns the offset of the packet with the given identity key,
// or -1 if absent.
func (s Sequence) IndexOfKey(key string) int {
	for i, p := range s {
		if p.Key() == key {
			return i
		}
	}
	return -1
}

// Prefix returns pkt⟨t] — the prefix of s up to and including the packet at
// offset i. It panics if i is out of range.
func (s Sequence) Prefix(i int) Sequence {
	return s[:i+1].Clone()
}

// Postfix returns pkt[t⟩ — the postfix of s from offset i (inclusive) to the
// end. It panics if i is out of range.
func (s Sequence) Postfix(i int) Sequence {
	return s[i:].Clone()
}

// PostfixFromData returns pkt[t_k⟩ for data packet t_k. If t_k is not in s,
// the postfix starts at the first packet positioned after t_k would be.
func (s Sequence) PostfixFromData(k int64) Sequence {
	if i := s.IndexOfData(k); i >= 0 {
		return s.Postfix(i)
	}
	for i, p := range s {
		if p.Pos >= float64(k) {
			return s.Postfix(i)
		}
	}
	return nil
}

// Union returns the sequence containing every packet of a and b exactly
// once, in canonical order (paper: pkt_i ∪ pkt_j). Both inputs must be in
// canonical order; the result is. It is one pass and one allocation:
// equal identities meeting at the two heads collapse there, and a packet
// equal to the one just emitted (an adjacent duplicate inside an input)
// is skipped as it is merged. Neither argument is written.
func Union(a, b Sequence) Sequence { return UnionExcept(a, b, nil) }

// UnionExcept is Union with the packets of a that drop reports left out
// as the merge reaches them — (a ∖ dropped) ∪ b in the same one pass
// and one allocation. A nil drop leaves nothing out.
func UnionExcept(a, b Sequence, drop func(*Packet) bool) Sequence {
	out := make(Sequence, 0, len(a)+len(b))
	i, j := 0, 0
	for {
		for drop != nil && i < len(a) && drop(&a[i]) {
			i++
		}
		if i == len(a) && j == len(b) {
			return out
		}
		var p *Packet
		switch {
		case j == len(b):
			p = &a[i]
			i++
		case i == len(a):
			p = &b[j]
			j++
		case SameIdentity(&a[i], &b[j]):
			p = &a[i]
			i++
			j++
		case Less(&a[i], &b[j]):
			p = &a[i]
			i++
		default:
			p = &b[j]
			j++
		}
		if n := len(out); n == 0 || !SameIdentity(p, &out[n-1]) {
			out = append(out, *p)
		}
	}
}

// Intersect returns the sequence of packets present in both a and b
// (paper: pkt_i ∩ pkt_j), in canonical order. Canonically ordered inputs
// intersect by a linear merge with no allocation beyond the result;
// unsorted inputs fall back to a membership map.
func Intersect(a, b Sequence) Sequence {
	if a.Sorted() && b.Sorted() {
		var out Sequence
		j := 0
		for i := range a {
			p := &a[i]
			for j < len(b) && Less(&b[j], p) {
				j++
			}
			if j < len(b) && SameIdentity(&b[j], p) {
				out = append(out, *p)
			}
		}
		return out
	}
	inB := make(map[string]struct{}, len(b))
	for _, p := range b {
		inB[p.Key()] = struct{}{}
	}
	var out Sequence
	for _, p := range a {
		if _, ok := inB[p.Key()]; ok {
			out = append(out, p)
		}
	}
	return out
}

// Disjoint reports whether a and b share no packets
// (pkt_i ∩ pkt_j = φ, the condition §3.2 imposes on subsequences).
func Disjoint(a, b Sequence) bool { return len(Intersect(a, b)) == 0 }

// Divide splits s into H subsequences by round-robin: the j-th packet
// (0-based) of s goes to subsequence j mod H, matching §3.2's division
// rule. It returns all H subsequences; Divide(s, H)[i] is Div(s, H, CP_i)
// for the i-th assigned peer (0-based).
func Divide(s Sequence, H int) []Sequence {
	if H <= 0 {
		panic(fmt.Sprintf("seq: Divide fanout H=%d must be positive", H))
	}
	out := make([]Sequence, H)
	for i := range out {
		out[i] = Div(s, H, i)
	}
	return out
}

// Div returns the i-th (0-based) of the H round-robin subsequences of s
// without materializing the others: ⌈(len(s)−i)/H⌉ packets, allocated
// once at that size (nil when the part is empty).
func Div(s Sequence, H, i int) Sequence {
	if H <= 0 || i < 0 || i >= H {
		panic(fmt.Sprintf("seq: Div(H=%d, i=%d) out of range", H, i))
	}
	if i >= len(s) {
		return nil
	}
	out := make(Sequence, 0, (len(s)-i+H-1)/H)
	for j := i; j < len(s); j += H {
		out = append(out, s[j])
	}
	return out
}

// Equal reports whether a and b contain the same packets in the same order.
func Equal(a, b Sequence) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !SameIdentity(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

// MidPos returns a position strictly between lo and hi suitable for an
// inserted packet. When the arithmetic midpoint rounds onto an endpoint
// it falls back to the smallest representable value above lo, so nested
// insertions keep producing distinct positions until the interval is a
// single ulp wide. Only when no representable position exists strictly
// between lo and hi (adjacent, equal, or inverted endpoints) does it
// return lo; ordering then falls through to the identity tie-break.
func MidPos(lo, hi float64) float64 {
	m := lo + (hi-lo)/2
	if m > lo && m < hi {
		return m
	}
	if n := math.Nextafter(lo, hi); n > lo && n < hi {
		return n
	}
	return lo
}
