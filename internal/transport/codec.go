package transport

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"p2pmss/internal/wire"
)

// The frame envelope (DESIGN.md §9). A UDP datagram is one envelope; a
// TCP frame is one envelope behind a 4-byte big-endian length; the
// in-process fabric passes Msg values and never builds one.
//
//	magic    4 bytes  "p2p2" — three bytes of protocol tag, one of version
//	type     1 byte   index into typeCodes; 0 = uvarint length + name inline
//	flags    1 byte   bit 0: trace context present; other bits must be 0
//	trace    8 bytes  } little endian, present
//	span     8 bytes  } only when flags bit 0 is set
//	from     uvarint length + bytes
//	session  uvarint length + bytes
//	body     the rest of the frame, opaque to the transport
//
// Any change to this layout or to a body layout changes the version byte:
// a receiver parses only the version it was built for and counts
// everything else under transport_decode_errors_total{reason="magic"}.

// frameMagic opens every frame. Its last byte is the format version.
var frameMagic = [4]byte{'p', '2', 'p', '2'}

// typeCodes maps the one-byte type code to the message type it stands
// for. Index 0 is reserved for a type spelled inline, so a type that is
// not listed (the gossip driver's, a benchmark's probe) still travels.
// Appending a name is compatible — an older receiver counts the frame
// under reason="type" — but reordering is a version change.
var typeCodes = [...]string{"", "request", "control", "confirm", "commit", "data", "repair", "join", "announce"}

func typeCode(typ string) byte {
	for c := 1; c < len(typeCodes); c++ {
		if typeCodes[c] == typ {
			return byte(c)
		}
	}
	return 0
}

const flagTraced = 1 << 0

// AppendFrame appends m's frame — the bytes of one UDP datagram, or of a
// TCP frame after its length header — to b.
func AppendFrame(b []byte, m Msg) []byte {
	b = append(b, frameMagic[:]...)
	code := typeCode(m.Type)
	b = append(b, code)
	if code == 0 {
		b = wire.AppendString(b, m.Type)
	}
	if m.Trace != 0 || m.Span != 0 {
		b = append(b, flagTraced)
		b = wire.AppendUint64(b, m.Trace)
		b = wire.AppendUint64(b, m.Span)
	} else {
		b = append(b, 0)
	}
	b = wire.AppendString(b, m.From)
	b = wire.AppendString(b, m.Session)
	return append(b, m.Payload...)
}

// frameError is why a frame was rejected; its text is the reason label of
// transport_decode_errors_total.
type frameError uint8

const (
	// badMagic: the frame does not open with frameMagic — foreign traffic
	// or another format version.
	badMagic frameError = iota
	// truncated: the frame ends inside a header field.
	truncated
	// badLength: a length prefix runs past the end of the frame, or a TCP
	// frame header claims more than MaxFrame.
	badLength
	// badType: a type code or flag bit this version does not define.
	badType
	numFrameErrors
)

var frameErrorNames = [numFrameErrors]string{"magic", "truncated", "length", "type"}

func (e frameError) Error() string { return "transport: malformed frame: " + frameErrorNames[e] }

// DecodeFrame parses one frame. The returned message's strings are
// copies, but its Payload aliases frame: a socket transport hands it to
// the handler as is and reuses the read buffer once the handler returns
// (see Msg.Payload). On failure the error names the reason the frame is
// counted under in transport_decode_errors_total.
func DecodeFrame(frame []byte) (Msg, error) {
	if len(frame) < len(frameMagic) || [4]byte(frame[:4]) != frameMagic {
		return Msg{}, badMagic
	}
	r := wire.NewReader(frame[len(frameMagic):])
	var m Msg
	switch code := r.Byte(); {
	case code == 0:
		m.Type = r.String()
		if typeCode(m.Type) != 0 {
			return Msg{}, badType // a listed type has one spelling: its code
		}
	case int(code) < len(typeCodes):
		m.Type = typeCodes[code]
	default:
		return Msg{}, badType
	}
	flags := r.Byte()
	if flags&^flagTraced != 0 {
		return Msg{}, badType
	}
	if flags&flagTraced != 0 {
		m.Trace = r.Uint64()
		m.Span = r.Uint64()
		if m.Trace == 0 && m.Span == 0 && r.Err() == nil {
			return Msg{}, badType // an untraced message has one spelling: flag clear
		}
	}
	// From and Session are cut from one string: a received message costs
	// one allocation however it is addressed.
	from, session := r.Bytes(), r.Bytes()
	var names strings.Builder
	names.Grow(len(from) + len(session))
	names.Write(from)
	names.Write(session)
	m.From, m.Session = names.String()[:len(from)], names.String()[len(from):]
	if err := r.Err(); err != nil {
		if errors.Is(err, wire.ErrTruncated) {
			return Msg{}, truncated
		}
		return Msg{}, badLength
	}
	if body := r.Rest(); len(body) > 0 {
		m.Payload = body
	}
	return m, nil
}

// framePool recycles the buffers a transport builds frames in (socket
// sends) and copies payloads into (the fabric and the impairer): each
// goes back once nothing reads it any more.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledFrame keeps a rare large frame (a long control sequence) from
// pinning its buffer in the pool.
const maxPooledFrame = 64 << 10

// borrow copies p into a pooled buffer, returned with putFrame once the
// copy is no longer read. An empty p is not copied; bp is then nil.
func borrow(p []byte) (bp *[]byte, b []byte) {
	if len(p) == 0 {
		return nil, p[:0:0]
	}
	bp = framePool.Get().(*[]byte)
	return bp, append((*bp)[:0], p...)
}

// putFrame returns a buffer to the pool, poisoned first under the race
// detector (poison_race.go) so a reader that kept it fails loudly.
func putFrame(bp *[]byte, b []byte) {
	if bp == nil {
		return
	}
	poison(b)
	if cap(b) <= maxPooledFrame {
		*bp = b[:0]
		framePool.Put(bp)
	}
}

// WireAppender is a message body that knows its own wire form: AppendWire
// appends it to b and returns the extended slice.
type WireAppender interface {
	AppendWire(b []byte) []byte
}

// WireDecoder is the receiving half: DecodeWire replaces the receiver
// with the value encoded in b, which it may alias but must not modify; a
// handler that keeps the decoded value past its return copies what
// aliases b (see Msg.Payload).
type WireDecoder interface {
	DecodeWire(b []byte) error
}

// Encode builds a message of the given type from body v, which must be
// a WireAppender: there is no reflective fallback.
func Encode(typ, from string, v any) (Msg, error) {
	a, ok := v.(WireAppender)
	if !ok {
		return Msg{}, fmt.Errorf("transport: encode %s: %T has no wire encoding", typ, v)
	}
	return Msg{Type: typ, From: from, Payload: a.AppendWire(nil)}, nil
}

// Decode decodes the message body into v, which must be a WireDecoder.
func (m Msg) Decode(v any) error {
	d, ok := v.(WireDecoder)
	if !ok {
		return fmt.Errorf("transport: decode %s: %T has no wire encoding", m.Type, v)
	}
	if err := d.DecodeWire(m.Payload); err != nil {
		return fmt.Errorf("transport: decode %s: %w", m.Type, err)
	}
	return nil
}
