package seq

import (
	"encoding/binary"
	"slices"

	"p2pmss/internal/wire"
)

// The packet codec of the binary wire format (DESIGN.md §9). One packet
// is
//
//	kind    1 byte   (0 data, 1 parity)
//	index   uvarint
//	pos     8 bytes  (raw float64 bits, little endian)
//	covers  uvarint count, then each key as uvarint length + bytes
//	payload uvarint length + bytes (length 0 for a payload-stripped packet)
//
// and a sequence is a uvarint count followed by that many packets. The
// live data message carries one packet; control and commit carry their
// payload-stripped Assigned sequences in the same form.

// minWirePacket is the size of the smallest encoded packet (no covers,
// no payload): the bound ReadSequence checks a count against.
const minWirePacket = 1 + 1 + 8 + 1 + 1

// AppendPacket appends p's wire form to b, growing b at most once.
func AppendPacket(b []byte, p Packet) []byte {
	size := minWirePacket + 3*(binary.MaxVarintLen64-1) + len(p.Payload)
	for _, c := range p.Covers {
		size += binary.MaxVarintLen64 + len(c)
	}
	b = slices.Grow(b, size)
	b = append(b, byte(p.Kind))
	b = wire.AppendUvarint(b, uint64(p.Index))
	b = wire.AppendFloat(b, p.Pos)
	b = wire.AppendStrings(b, p.Covers)
	return wire.AppendBytes(b, p.Payload)
}

// ReadPacket decodes one packet. Its Payload aliases the reader's input;
// Covers are copies. A kind other than Data or Parity fails the reader.
// A parity packet comes back with its identity key already built (see
// readIdentity), so nothing downstream joins its covers again.
func ReadPacket(r *wire.Reader) Packet {
	kind := Kind(r.Byte())
	if kind > Parity {
		r.Invalid()
	}
	p := Packet{Kind: kind, Index: int64(r.Uvarint()), Pos: r.Float()}
	if kind == Parity {
		p.key, p.Covers = readIdentity(r)
	} else {
		p.Covers = r.Strings()
	}
	p.Payload = r.Bytes()
	return p
}

// readIdentity reads a parity packet's cover list and builds the identity
// "p(a,b)" that computeKey would, once: the key is assembled from the
// cover bytes still in the reader's input (on the stack when it is
// short), made a string, and Covers are substrings of it — two
// allocations whatever the cover count (three for a key past 64 bytes),
// and none later when Key is asked. An empty list yields no key (Key
// computes "p()" on demand).
func readIdentity(r *wire.Reader) (key string, covers []string) {
	n := r.Count(1)
	if n == 0 {
		return "", nil
	}
	var short [64]byte
	buf := append(short[:0], "p("...)
	views := *r // walked again below for the cover boundaries
	for i := 0; i < n; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, r.Bytes()...)
	}
	if r.Err() != nil {
		return "", nil
	}
	key = string(append(buf, ')'))
	covers = make([]string, n)
	off := len("p(")
	for i := range covers {
		end := off + len(views.Bytes())
		covers[i] = key[off:end]
		off = end + 1
	}
	return key, covers
}

// AppendSequence appends the counted wire form of s to b.
func AppendSequence(b []byte, s Sequence) []byte {
	b = wire.AppendUvarint(b, uint64(len(s)))
	for _, p := range s {
		b = AppendPacket(b, p)
	}
	return b
}

// ReadSequence decodes a sequence written by AppendSequence (nil when
// empty). Payloads alias the reader's input.
func ReadSequence(r *wire.Reader) Sequence {
	n := r.Count(minWirePacket)
	if n == 0 {
		return nil
	}
	s := make(Sequence, n)
	for i := range s {
		s[i] = ReadPacket(r)
	}
	if r.Err() != nil {
		return nil
	}
	return s
}
