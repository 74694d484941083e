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
// Identity. A Packet is 48 bytes with no string: a data packet's identity
// is its index, a parity packet's an immutable shared node (ident.go),
// compared structurally. Key spells it for people, the wire and Less at
// one position; a decoded packet is a constructed one.
//
// Ordering. Every packet carries a Pos value fixing its place in the
// stream a peer transmits. Data packet t_k has Pos k; a parity packet
// inserted between two packets gets the midpoint of their positions, so
// sequences derived from a common ancestor interleave consistently and
// Union can merge them by position.
//
// Cost. Union walks its shorter operand and copies the longer one's runs
// between those packets in bulk; each copied packet costs a position
// compare and, for a data packet, an index compare inline, and only the
// shorter operand's packets take a full comparison. A parity can recur
// at another position (two enhancements of one segment): Union collapses
// two copies only where they meet at the merge heads, and keeps a's copy
// at a's position, but Intersect and Set match by identity wherever the
// copies sit.
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
	"fmt"
	"math"
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

// Packet is the unit of transmission in the MSS model. A data packet is
// {Index, Pos, Payload}; a parity packet also points at its identity.
// Construct packets with NewData and NewParity (or Arena.NewParity, or
// decode them) so identity and position are consistent.
type Packet struct {
	// Index is the 1-based content index of a data packet (t_Index).
	// Zero for parity packets.
	Index int64
	// Pos is the packet's position in the transmission stream. Data
	// packet t_k has Pos k; parity packets carry fractional positions.
	Pos float64
	// Payload is the packet body. Experiments that only count packets
	// leave it nil; the content and live layers fill it in.
	Payload []byte
	// id is a parity packet's identity, nil for a data packet.
	id *ident
}

// NewData returns the content data packet t_index (1-based).
func NewData(index int64) Packet {
	return Packet{Index: index, Pos: float64(index)}
}

// NewDataPayload returns t_index carrying the given payload.
func NewDataPayload(index int64, payload []byte) Packet {
	return Packet{Index: index, Pos: float64(index), Payload: payload}
}

// NewParity returns a parity packet covering the given packets, positioned
// at pos. The covered packets' identities are recorded in stream order.
func NewParity(covered []Packet, pos float64) Packet {
	var a Arena
	return a.NewParity(covered, pos)
}

// Kind returns Data or Parity.
func (p Packet) Kind() Kind {
	if p.id == nil {
		return Data
	}
	return Parity
}

// IsData reports whether p is a content data packet.
func (p Packet) IsData() bool { return p.id == nil }

// NumCovers returns how many packets a parity packet covers (0 for data).
func (p Packet) NumCovers() int { return len(p.covers()) }

func (p Packet) covers() []ref {
	if p.id == nil {
		return nil
	}
	return p.id.covers
}

// Cover returns the i-th packet p covers, with no position or payload.
func (p Packet) Cover(i int) Packet {
	c := p.id.covers[i]
	return Packet{Index: c.index, id: c.node}
}

// Hash hashes p's identity: it rules a match out, SameIdentity decides.
func (p Packet) Hash() uint64 { return p.ref().hash() }

func (p Packet) ref() ref {
	if p.id != nil {
		return ref{node: p.id}
	}
	return ref{index: p.Index}
}

// Key returns the packet's identity: "t<k>" for data packet t_k and
// "p(<keys>)" for a parity packet, matching the paper's t⟨…⟩ notation.
// Two packets with equal keys carry the same bytes.
func (p Packet) Key() string {
	var buf [64]byte
	return string(appendKey(buf[:0], p.ref()))
}

// SameIdentity reports whether a and b are the same packet (equal
// identity keys): data packets compare by index, parity packets by their
// identity nodes, structurally. No key string is built.
func SameIdentity(a, b *Packet) bool {
	if a.id == nil || b.id == nil {
		return a.id == b.id && a.Index == b.Index
	}
	return sameNode(a.id, b.id)
}

// String renders the packet in the paper's notation.
func (p Packet) String() string { return p.Key() }

// GoString is %#v of the packet, its identity spelled as its key.
func (p Packet) GoString() string {
	return fmt.Sprintf("seq.Packet{Index:%d, Pos:%#v, Payload:%#v, Key:%q}", p.Index, p.Pos, p.Payload, p.Key())
}

// Sequence is an ordered sequence of packets, sorted by Pos (ties broken
// by identity key so ordering is total and deterministic).
type Sequence []Packet

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
	return keyLess(a, b)
}

// keyLess orders packets at one position by identity key, building no
// key for two of one identity.
func keyLess(a, b *Packet) bool {
	if SameIdentity(a, b) {
		return false
	}
	var ka, kb [64]byte
	return string(appendKey(ka[:0], a.ref())) < string(appendKey(kb[:0], b.ref()))
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

// Union returns the sequence containing every packet of a and b exactly
// once, in canonical order (paper: pkt_i ∪ pkt_j). Both inputs must be in
// canonical order; the result is. It allocates once and writes to
// neither argument: equal identities meeting at the two heads collapse
// there, keeping a's packet, and a packet equal to the one just emitted
// (an adjacent duplicate inside an input) is skipped.
//
// Union walks the shorter operand, and the longer one's runs between its
// packets are copied in bulk, each packet checked only against the next
// packet of the shorter operand (its position and identity) and the one
// before it (an adjacent duplicate), data packets inline. The walk takes
// the decisions of a merge that moves one packet per step, so its result
// is that merge's for any input, canonical or not.
func Union(a, b Sequence) Sequence { return UnionExcept(a, b, nil) }

// UnionExcept is Union with the packets of a that drop reports left out
// as the merge reaches them — (a ∖ dropped) ∪ b in the same one pass
// and one allocation. drop sees every packet of a, maybe more than once;
// a nil drop leaves nothing out.
func UnionExcept(a, b Sequence, drop func(*Packet) bool) Sequence {
	out := make(Sequence, 0, len(a)+len(b))
	aShort := len(a) <= len(b)
	short, long, shortDrop, longDrop := a, b, drop, (func(*Packet) bool)(nil)
	if !aShort {
		short, long, shortDrop, longDrop = b, a, nil, drop
	}
	var prev *Packet // the packet last emitted
	i := 0           // the head of long
	for j := range short {
		x := &short[j]
		if shortDrop != nil && shortDrop(x) {
			continue
		}
		// Copy the run of long that goes before x, up to a packet with
		// x's identity (the heads meet) or one x goes before.
		meets, from := false, i
		for ; i < len(long); i++ {
			p := &long[i]
			if longDrop == nil || !longDrop(p) {
				if meets = !distinct(p, x) && SameIdentity(p, x); meets {
					break
				}
				// The step-by-step merge's comparison, operands in its
				// order: does p go before x?
				if aShort && Less(x, p) || !aShort && !Less(p, x) {
					break
				}
				if prev == nil || distinct(p, prev) || !SameIdentity(p, prev) {
					prev = p
					continue
				}
			}
			out = append(out, long[from:i]...)
			from = i + 1
		}
		if from < i {
			out = append(out, long[from:i]...)
		}
		if meets {
			if !aShort {
				x = &long[i] // the heads collapse to a's packet
			}
			i++
		}
		if prev == nil || distinct(x, prev) || !SameIdentity(x, prev) {
			out = append(out, *x)
			prev = x
		}
	}
	from := i
	for ; i < len(long); i++ {
		if p := &long[i]; longDrop != nil && longDrop(p) || prev != nil && !distinct(p, prev) && SameIdentity(p, prev) {
			out = append(out, long[from:i]...)
			from = i + 1
		} else {
			prev = p
		}
	}
	return append(out, long[from:]...)
}

// distinct settles the common answers of SameIdentity inline: a data
// packet and a parity, or data packets of two indices, are distinct.
// False leaves SameIdentity to decide.
func distinct(p, q *Packet) bool {
	return (p.id == nil) != (q.id == nil) || p.id == nil && p.Index != q.Index
}

// Intersect returns the packets of a present in b (paper: pkt_i ∩ pkt_j),
// in a's order, matched by identity through a Set of b: a parity that
// recurs at another position in b is present in b, and neither input
// need be sorted.
func Intersect(a, b Sequence) Sequence {
	var out Sequence
	in := NewSet(len(b))
	for i := range b {
		in.Add(&b[i])
	}
	for i := range a {
		if in.Has(&a[i]) {
			out = append(out, a[i])
		}
	}
	return out
}

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
