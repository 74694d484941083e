package wire

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 300)
	b = AppendInt(b, -7)
	b = AppendFloat(b, math.Inf(-1))
	b = AppendUint64(b, 1<<63|5)
	b = AppendBool(b, true)
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendString(b, "héllo")
	b = AppendStrings(b, []string{"a", "", "ccc"})
	b = AppendStrings(b, nil)
	b = append(b, 9, 9)

	r := NewReader(b)
	if v := r.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Int(); v != -7 {
		t.Errorf("Int = %d", v)
	}
	if v := r.Float(); !math.IsInf(v, -1) {
		t.Errorf("Float = %v", v)
	}
	if v := r.Uint64(); v != 1<<63|5 {
		t.Errorf("Uint64 = %x", v)
	}
	if !r.Bool() {
		t.Error("Bool = false")
	}
	if v := r.Bytes(); !reflect.DeepEqual(v, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", v)
	}
	if v := r.String(); v != "héllo" {
		t.Errorf("String = %q", v)
	}
	if v := r.Strings(); !reflect.DeepEqual(v, []string{"a", "", "ccc"}) {
		t.Errorf("Strings = %q", v)
	}
	if v := r.Strings(); v != nil {
		t.Errorf("empty Strings = %q, want nil", v)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if !errors.Is(r.Done(), ErrLength) {
		t.Error("Done accepted the two trailing bytes")
	}
}

// Every malformed input is an error of the documented class, sticks, and
// zeroes whatever is read after it.
func TestMalformed(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		read func(*Reader)
		want error
	}{
		{"empty uvarint", nil, func(r *Reader) { r.Uvarint() }, ErrTruncated},
		{"cut uvarint", []byte{0x80}, func(r *Reader) { r.Uvarint() }, ErrTruncated},
		{"overlong uvarint", []byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }, ErrLength},
		{"overflowing uvarint", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, func(r *Reader) { r.Uvarint() }, ErrLength},
		{"cut float", []byte{1, 2, 3}, func(r *Reader) { r.Float() }, ErrTruncated},
		{"no byte", nil, func(r *Reader) { r.Byte() }, ErrTruncated},
		{"bool 2", []byte{2}, func(r *Reader) { r.Bool() }, ErrValue},
		{"string overrun", []byte{5, 'a', 'b'}, func(r *Reader) { _ = r.String() }, ErrLength},
		{"huge string", []byte{0xff, 0xff, 0xff, 0xff, 0x0f}, func(r *Reader) { r.Bytes() }, ErrLength},
		{"huge count", []byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0}, func(r *Reader) { r.Strings() }, ErrLength},
		{"count over min size", []byte{3, 0, 0, 0, 0, 0}, func(r *Reader) { r.Count(2) }, ErrLength},
		{"list cut short", []byte{2, 1, 'a', 4, 'b'}, func(r *Reader) { r.Strings() }, ErrLength},
	} {
		r := NewReader(tc.in)
		tc.read(&r)
		if !errors.Is(r.Err(), tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, r.Err(), tc.want)
		}
		if r.Uvarint() != 0 || r.String() != "" || r.Rest() != nil || !errors.Is(r.Done(), tc.want) {
			t.Errorf("%s: reads after the error are not zero, or the error did not stick", tc.name)
		}
	}
}

// A count is checked against the input before anything is allocated for
// it: a five-byte prefix claiming 2^32 strings allocates nothing.
func TestHostileCountAllocatesNothing(t *testing.T) {
	in := []byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1, 'a'}
	if got := testing.AllocsPerRun(100, func() {
		r := NewReader(in)
		r.Strings()
	}); got != 0 {
		t.Errorf("%.0f allocs decoding a hostile count", got)
	}
}
