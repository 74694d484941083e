package seq

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"p2pmss/internal/wire"
)

// wireForm is a packet as it comes off the wire: a parity packet with
// covers carries its identity, built once at decode; a data packet
// computes its key on demand.
func wireForm(p Packet) Packet {
	p.key = ""
	if p.Kind == Parity && len(p.Covers) > 0 {
		p.key = computeKey(p)
	}
	return p
}

func TestPacketWireRoundTrip(t *testing.T) {
	inner := NewParity([]Packet{NewData(7), NewData(8)}, 8.5)
	nested := NewParity([]Packet{NewData(5), inner}, MidPos(8.5, 9))
	nested.Payload = []byte{1, 2, 3, 4}
	s := Sequence{NewData(1), NewDataPayload(1<<40, bytes.Repeat([]byte{7}, 300)), inner, nested,
		{Kind: Data, Index: -3, Pos: math.Inf(1)}, {Kind: Data, Index: 2, Covers: []string{"x"}, Pos: 2},
		{Kind: Parity, Pos: 1.5}, {Kind: Parity, Covers: []string{"", "a,b", ""}, Pos: -1}}
	for _, p := range s {
		enc := AppendPacket(nil, p)
		r := wire.NewReader(enc)
		got := ReadPacket(&r)
		if err := r.Done(); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if !reflect.DeepEqual(got, wireForm(p)) {
			t.Errorf("decoded %+v, want %+v", got, wireForm(p))
		}
		if got.Key() != p.Key() {
			t.Errorf("identity changed: %s -> %s", p.Key(), got.Key())
		}
		if !bytes.Equal(AppendPacket(nil, got), enc) {
			t.Errorf("%v: re-encoded differently", p)
		}
	}

	enc := AppendSequence([]byte{0xEE}, s)
	r := wire.NewReader(enc[1:])
	got := ReadSequence(&r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(s) || !Equal(got, s) {
		t.Errorf("sequence decoded to %v, want %v", got, s)
	}
	r = wire.NewReader(AppendSequence(nil, nil))
	if got := ReadSequence(&r); got != nil || r.Done() != nil {
		t.Errorf("empty sequence decoded to %v (%v)", got, r.Err())
	}
}

// A decoded parity packet's identity is built once: two allocations
// whatever the cover count, its Covers are views of the key, and neither
// aliases the input.
func TestReadPacketBuildsIdentityOnce(t *testing.T) {
	covered := make([]Packet, 7)
	for i := range covered {
		covered[i] = NewData(int64(1000 + i))
	}
	want := NewParity(covered, 1003.5)
	enc := AppendPacket(nil, want)
	var got Packet
	if n := testing.AllocsPerRun(100, func() {
		r := wire.NewReader(enc)
		got = ReadPacket(&r)
		_ = got.Key()
	}); n != 2 {
		t.Errorf("decoding a 7-cover parity and asking its key: %.0f allocs, want 2", n)
	}
	for i := range enc {
		enc[i] = 0x5a
	}
	if got.Key() != want.Key() || !reflect.DeepEqual(got.Covers, want.Covers) {
		t.Errorf("decoded %q covering %q, want %q covering %q", got.Key(), got.Covers, want.Key(), want.Covers)
	}
	// A cover list that overruns the input fails the reader and leaves
	// nothing half-built.
	r := wire.NewReader(AppendPacket(nil, want)[:20])
	if p := ReadPacket(&r); r.Err() == nil || p.Covers != nil || p.key != "" {
		t.Errorf("cut cover list decoded to %+v (%v)", p, r.Err())
	}
}

func TestPacketWireRejects(t *testing.T) {
	good := AppendPacket(nil, NewDataPayload(9, []byte("payload")))
	for name, in := range map[string][]byte{
		"unknown kind":   append([]byte{2}, good[1:]...),
		"cut in pos":     good[:5],
		"cut in payload": good[:len(good)-1],
	} {
		r := wire.NewReader(in)
		ReadPacket(&r)
		if r.Done() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A count of 2^28 packets in a 6-byte input is refused before the
	// slice for them is made.
	hostile := []byte{0x80, 0x80, 0x80, 0x80, 0x01, 0}
	if got := testing.AllocsPerRun(100, func() {
		r := wire.NewReader(hostile)
		if ReadSequence(&r) != nil || !errors.Is(r.Err(), wire.ErrLength) {
			t.Fatal("hostile sequence count accepted")
		}
	}); got != 0 {
		t.Errorf("%.0f allocs decoding a hostile sequence count", got)
	}
}
