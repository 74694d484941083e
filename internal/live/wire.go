package live

import (
	"p2pmss/internal/seq"
	"p2pmss/internal/wire"
)

// The binary wire form of the message bodies: fields in declaration
// order, ints as uvarints, rates as raw float64 bits, strings and lists
// length-prefixed, sequences in the packet codec of internal/seq
// (DESIGN.md §9 has the byte layouts). AppendWire never fails; DecodeWire
// replaces the receiver, rejects trailing bytes, and checks every count
// against the input that remains before allocating for it. Decoded
// packet payloads alias the input, a borrowed transport.Msg.Payload:
// a handler copies what it keeps.

func (b requestBody) AppendWire(buf []byte) []byte {
	buf = wire.AppendStrings(buf, b.Roster)
	buf = wire.AppendString(buf, b.ContentID)
	buf = wire.AppendFloat(buf, b.Rate)
	buf = wire.AppendInt(buf, b.H)
	buf = wire.AppendInt(buf, b.Interval)
	buf = wire.AppendInt(buf, b.Index)
	buf = wire.AppendStrings(buf, b.Selected)
	return wire.AppendString(buf, b.Leaf)
}

func (b *requestBody) DecodeWire(buf []byte) error {
	r := wire.NewReader(buf)
	*b = requestBody{
		Roster:    r.Strings(),
		ContentID: r.String(),
		Rate:      r.Float(),
		H:         r.Int(),
		Interval:  r.Int(),
		Index:     r.Int(),
		Selected:  r.Strings(),
		Leaf:      r.String(),
	}
	return r.Done()
}

func (b controlBody) AppendWire(buf []byte) []byte {
	buf = wire.AppendStrings(buf, b.Roster)
	buf = wire.AppendString(buf, b.Parent)
	buf = wire.AppendStrings(buf, b.View)
	buf = wire.AppendString(buf, b.Leaf)
	buf = wire.AppendString(buf, b.ContentID)
	buf = wire.AppendInt(buf, b.SeqOffset)
	buf = wire.AppendFloat(buf, b.Rate)
	buf = wire.AppendFloat(buf, b.ChildRate)
	buf = wire.AppendInt(buf, b.Children)
	buf = wire.AppendInt(buf, b.ChildIdx)
	buf = wire.AppendInt(buf, b.Round)
	return seq.AppendSequence(buf, b.Assigned)
}

func (b *controlBody) DecodeWire(buf []byte) error {
	r := wire.NewReader(buf)
	*b = controlBody{
		Roster:    r.Strings(),
		Parent:    r.String(),
		View:      r.Strings(),
		Leaf:      r.String(),
		ContentID: r.String(),
		SeqOffset: r.Int(),
		Rate:      r.Float(),
		ChildRate: r.Float(),
		Children:  r.Int(),
		ChildIdx:  r.Int(),
		Round:     r.Int(),
		Assigned:  seq.ReadSequence(&r),
	}
	return r.Done()
}

func (b confirmBody) AppendWire(buf []byte) []byte {
	buf = wire.AppendString(buf, b.Child)
	buf = wire.AppendBool(buf, b.Accept)
	return wire.AppendInt(buf, b.Round)
}

func (b *confirmBody) DecodeWire(buf []byte) error {
	r := wire.NewReader(buf)
	*b = confirmBody{Child: r.String(), Accept: r.Bool(), Round: r.Int()}
	return r.Done()
}

func (b commitBody) AppendWire(buf []byte) []byte {
	buf = wire.AppendStrings(buf, b.Roster)
	buf = wire.AppendString(buf, b.Parent)
	buf = wire.AppendString(buf, b.ContentID)
	buf = wire.AppendString(buf, b.Leaf)
	buf = wire.AppendInt(buf, b.Streams)
	buf = wire.AppendInt(buf, b.SeqOffset)
	buf = wire.AppendFloat(buf, b.Rate)
	buf = wire.AppendInt(buf, b.ChildIdx)
	buf = wire.AppendInt(buf, b.Round)
	return seq.AppendSequence(buf, b.Assigned)
}

func (b *commitBody) DecodeWire(buf []byte) error {
	r := wire.NewReader(buf)
	*b = commitBody{
		Roster:    r.Strings(),
		Parent:    r.String(),
		ContentID: r.String(),
		Leaf:      r.String(),
		Streams:   r.Int(),
		SeqOffset: r.Int(),
		Rate:      r.Float(),
		ChildIdx:  r.Int(),
		Round:     r.Int(),
		Assigned:  seq.ReadSequence(&r),
	}
	return r.Done()
}

func (b dataBody) AppendWire(buf []byte) []byte { return seq.AppendPacket(buf, b.Pkt) }

func (b *dataBody) DecodeWire(buf []byte) error {
	r := wire.NewReader(buf)
	b.Pkt = seq.ReadPacket(&r)
	return r.Done()
}

func (b repairBody) AppendWire(buf []byte) []byte {
	buf = wire.AppendString(buf, b.ContentID)
	buf = wire.AppendString(buf, b.Leaf)
	buf = wire.AppendUvarint(buf, uint64(len(b.Indices)))
	for _, k := range b.Indices {
		buf = wire.AppendUvarint(buf, uint64(k))
	}
	return buf
}

func (b *repairBody) DecodeWire(buf []byte) error {
	r := wire.NewReader(buf)
	*b = repairBody{ContentID: r.String(), Leaf: r.String()}
	if n := r.Count(1); n > 0 {
		b.Indices = make([]int64, n)
		for i := range b.Indices {
			b.Indices[i] = int64(r.Uvarint())
		}
	}
	return r.Done()
}

func (b joinBody) AppendWire(buf []byte) []byte {
	buf = wire.AppendString(buf, b.ContentID)
	return wire.AppendString(buf, b.Joiner)
}

func (b *joinBody) DecodeWire(buf []byte) error {
	r := wire.NewReader(buf)
	*b = joinBody{ContentID: r.String(), Joiner: r.String()}
	return r.Done()
}

// peekRoster reads the Roster that leads a request, control or commit
// body, without decoding what follows it.
func peekRoster(body []byte) ([]string, error) {
	r := wire.NewReader(body)
	roster := r.Strings()
	return roster, r.Err()
}
