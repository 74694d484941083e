// Package wire holds the primitives of the binary wire format shared by
// the transport envelope (internal/transport), the packet codec
// (internal/seq) and the live message bodies (internal/live): uvarints,
// length-prefixed byte strings, raw float64 bits, and counted lists.
//
// Encoding appends to a caller-supplied buffer and never fails. Decoding
// goes through a Reader whose first error sticks, so a decoder reads its
// fields straight through and checks once at the end. Every length and
// count is validated against the bytes that remain before anything is
// allocated for it: a hostile prefix cannot make a decoder allocate more
// than a small multiple of the input it was handed.
package wire

import (
	"encoding/binary"
	"errors"
	"math"
)

// Decoding errors. A transport classifies a malformed frame by them.
var (
	// ErrTruncated means the input ended inside a fixed-size field or a
	// varint.
	ErrTruncated = errors.New("wire: truncated input")
	// ErrLength means a length prefix or element count exceeds the bytes
	// that remain, a varint is overlong, or bytes trail the value.
	ErrLength = errors.New("wire: length exceeds input")
	// ErrValue means a field holds a value its type has no meaning for
	// (a bool other than 0 or 1, an unknown packet kind).
	ErrValue = errors.New("wire: invalid value")
)

// AppendUvarint appends v in the unsigned LEB128 form of encoding/binary.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendInt appends a non-negative-by-convention int as a uvarint of its
// two's-complement bits (a negative value costs ten bytes and still
// round-trips).
func AppendInt(b []byte, v int) []byte { return binary.AppendUvarint(b, uint64(int64(v))) }

// AppendFloat appends the raw IEEE-754 bits of f, little endian.
func AppendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendUint64 appends v as eight little-endian bytes.
func AppendUint64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendBool appends one byte, 1 or 0.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendBytes appends p behind its uvarint length.
func AppendBytes(b, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// AppendString appends s behind its uvarint length.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendStrings appends a counted list of length-prefixed strings.
func AppendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// Reader decodes the primitives from a byte slice. The zero Reader over
// no input is valid; after the first error every method returns a zero
// value and Err reports that error.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b. The Reader never writes to b, and
// only Bytes and Rest return slices that alias it.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Done returns the first decoding error, or ErrLength when input remains
// unread: a well-formed value accounts for every byte it was given.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) > 0 {
		r.err = ErrLength
	}
	return r.err
}

// Invalid fails the reader with ErrValue: the caller read a field whose
// value it cannot accept.
func (r *Reader) Invalid() { r.fail(ErrValue) }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// take consumes n bytes that the caller has checked are present.
func (r *Reader) take(n int) []byte {
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// Uvarint reads one uvarint. Only the shortest encoding of a value is
// accepted, so every value has exactly one spelling on the wire.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.fail(ErrTruncated)
		return 0
	case n < 0, n > 1 && r.b[n-1] == 0:
		r.fail(ErrLength)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int reads an int written by AppendInt.
func (r *Reader) Int() int { return int(int64(r.Uvarint())) }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.b) < 1 {
		r.fail(ErrTruncated)
		return 0
	}
	return r.take(1)[0]
}

// Bool reads one byte written by AppendBool; any value but 0 and 1 is
// invalid (the format has exactly one spelling of every value).
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.Invalid()
	return false
}

// Uint64 reads eight little-endian bytes.
func (r *Reader) Uint64() uint64 {
	if len(r.b) < 8 {
		r.fail(ErrTruncated)
		return 0
	}
	return binary.LittleEndian.Uint64(r.take(8))
}

// Float reads a float64 written by AppendFloat.
func (r *Reader) Float() float64 { return math.Float64frombits(r.Uint64()) }

// Bytes reads a length-prefixed byte string. The result aliases the
// input (nil when empty); callers that outlive the input copy it.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if n > uint64(len(r.b)) {
		r.fail(ErrLength)
		return nil
	}
	if n == 0 {
		return nil
	}
	return r.take(int(n))
}

// String reads a length-prefixed string (a copy of the input bytes).
func (r *Reader) String() string { return string(r.Bytes()) }

// Count reads an element count and checks that the remaining input can
// hold that many elements of at least minSize bytes each, so the caller
// may allocate for them.
func (r *Reader) Count(minSize int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/minSize) {
		r.fail(ErrLength)
		return 0
	}
	return int(n)
}

// Strings reads a list written by AppendStrings (nil when empty).
func (r *Reader) Strings() []string {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.String()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Rest consumes and returns everything unread, aliasing the input.
func (r *Reader) Rest() []byte {
	p := r.b
	r.b = nil
	return p
}
