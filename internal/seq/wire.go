package seq

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
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
//	payload uvarint length + bytes (length 0 for a payload-free packet)
//
// and a sequence is a uvarint count followed by that many packets. The
// live data message carries one packet; control and commit carry their
// payload-free Assigned sequences in the same form. A data packet has
// no covers; a cover key is "t<k>", k spelled as strconv.FormatInt spells
// it, or "p(" comma-separated cover keys ")". Anything else is malformed.

// minWirePacket is the size of the smallest encoded packet (no covers,
// no payload): the bound ReadSequence checks a count against.
const minWirePacket = 1 + 1 + 8 + 1 + 1

// AppendPacket appends p's wire form to b, growing b at most once.
func AppendPacket(b []byte, p Packet) []byte {
	covers := p.covers()
	size := minWirePacket + 3*(binary.MaxVarintLen64-1) + len(p.Payload)
	for _, c := range covers {
		size += binary.MaxVarintLen64 + keyLen(c)
	}
	b = slices.Grow(b, size)
	b = append(b, byte(p.Kind()))
	b = wire.AppendUvarint(b, uint64(p.Index))
	b = wire.AppendFloat(b, p.Pos)
	b = wire.AppendUvarint(b, uint64(len(covers)))
	for _, c := range covers {
		b = wire.AppendUvarint(b, uint64(keyLen(c)))
		b = appendKey(b, c)
	}
	return wire.AppendBytes(b, p.Payload)
}

// ReadPacket decodes one packet. Its Payload aliases the reader's input;
// a parity's identity is the node its constructor builds, made in two
// allocations whatever its cover count or nesting. An unknown kind, a
// data packet naming covers, or a malformed cover key fails the reader.
func ReadPacket(r *wire.Reader) Packet {
	kind := Kind(r.Byte())
	p := Packet{Index: int64(r.Uvarint()), Pos: r.Float()}
	n := r.Count(1)
	if kind > Parity || kind == Data && n > 0 {
		r.Invalid()
	}
	covers := *r // read again below to build the identity
	var d keyReader
	for i := 0; i < n; i++ {
		if c := r.Bytes(); len(c) == 0 || d.cover(c, 0) != len(c) {
			r.Invalid()
		}
	}
	p.Payload = r.Bytes()
	if r.Err() != nil {
		return Packet{}
	}
	if kind == Parity {
		d.a.Reserve(d.nodes+1, d.refs)
		d.build, d.top = true, d.refs
		for i := 0; i < n; i++ {
			d.cover(covers.Bytes(), 0)
		}
		p.id = d.close(d.refs)
	}
	return p
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

// jsonPacket is a packet's JSON form: the struct encoding/json wrote
// when a packet spelled its identity out, kept for mssim -json and its
// readers.
type jsonPacket struct {
	Kind    Kind
	Index   int64
	Covers  []string
	Pos     float64
	Payload []byte
}

func (p Packet) json() jsonPacket {
	v := jsonPacket{Kind: p.Kind(), Index: p.Index, Pos: p.Pos, Payload: p.Payload}
	if p.id != nil {
		v.Covers = make([]string, len(p.id.covers))
	}
	for i := range v.Covers {
		v.Covers[i] = p.Cover(i).Key()
	}
	return v
}

// MarshalJSON writes the packet's JSON form.
func (p Packet) MarshalJSON() ([]byte, error) { return json.Marshal(p.json()) }

// MarshalJSON writes the JSON form of every packet in one call.
func (s Sequence) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	v := make([]jsonPacket, len(s))
	for i := range s {
		v[i] = s[i].json()
	}
	return json.Marshal(v)
}

// UnmarshalJSON reads a packet's JSON form, accepting exactly the
// packets ReadPacket accepts.
func (p *Packet) UnmarshalJSON(b []byte) error {
	var v jsonPacket
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	enc := wire.AppendFloat(wire.AppendUvarint([]byte{byte(v.Kind)}, uint64(v.Index)), v.Pos)
	enc = wire.AppendBytes(wire.AppendStrings(enc, v.Covers), nil)
	r := wire.NewReader(enc)
	q := ReadPacket(&r)
	if err := r.Done(); err != nil {
		return fmt.Errorf("seq: packet %s: %w", b, err)
	}
	q.Payload = v.Payload
	*p = q
	return nil
}
