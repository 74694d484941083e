package seq

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"p2pmss/internal/wire"
)

func TestPacketWireRoundTrip(t *testing.T) {
	inner := NewParity([]Packet{NewData(7), NewData(8)}, 8.5)
	nested := NewParity([]Packet{NewData(5), inner}, MidPos(8.5, 9))
	nested.Payload = []byte{1, 2, 3, 4}
	s := Sequence{NewData(1), NewDataPayload(1<<40, bytes.Repeat([]byte{7}, 300)), inner, nested,
		{Index: -3, Pos: math.Inf(1)}, NewParity(nil, 1.5),
		NewParity([]Packet{NewData(math.MinInt64), NewData(math.MaxInt64), NewData(0), nested}, -1)}
	for _, p := range s {
		enc := AppendPacket(nil, p)
		r := wire.NewReader(enc)
		got := ReadPacket(&r)
		if err := r.Done(); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Errorf("decoded %+v, want %+v", got, p)
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

// A decoded parity packet's identity is built once, as its constructor
// builds it: two allocations whatever the cover count or nesting, and
// nothing aliasing the input.
func TestReadPacketBuildsIdentityOnce(t *testing.T) {
	covered := make([]Packet, 7)
	for i := range covered {
		covered[i] = NewData(int64(1000 + i))
	}
	flat := NewParity(covered, 1003.5)
	covered[3] = NewParity([]Packet{covered[2], NewParity(covered[4:6], 1004.5), flat}, 1002.5)
	nested := NewParity(covered, 1003.25)
	for _, want := range []Packet{flat, nested} {
		enc := AppendPacket(nil, want)
		var got Packet
		if n := testing.AllocsPerRun(100, func() {
			r := wire.NewReader(enc)
			got = ReadPacket(&r)
		}); n != 2 {
			t.Errorf("decoding %s: %.0f allocs, want 2", want.Key(), n)
		}
		for i := range enc {
			enc[i] = 0x5a
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("decoded %s, want %s", got.Key(), want.Key())
		}
		// A cover list that overruns the input fails the reader and
		// leaves nothing half-built.
		r := wire.NewReader(AppendPacket(nil, want)[:20])
		if p := ReadPacket(&r); r.Err() == nil || !reflect.DeepEqual(p, Packet{}) {
			t.Errorf("cut cover list decoded to %+v (%v)", p, r.Err())
		}
	}
}

func TestPacketWireRejects(t *testing.T) {
	good := AppendPacket(nil, NewDataPayload(9, []byte("payload")))
	// raw spells a packet of the given kind with the given cover keys.
	raw := func(kind Kind, covers ...string) []byte {
		b := wire.AppendFloat(wire.AppendUvarint([]byte{byte(kind)}, 0), 2)
		return wire.AppendBytes(wire.AppendStrings(b, covers), nil)
	}
	cases := map[string][]byte{
		"unknown kind":     append([]byte{2}, good[1:]...),
		"cut in pos":       good[:5],
		"cut in payload":   good[:len(good)-1],
		"data with covers": raw(Data, "t1"),
	}
	for _, bad := range []string{"", "x", "t", "t07", "t+7", "t-0", "t-", "t1 ", "t99999999999999999999",
		"t9223372036854775808", "p(t1", "p(t1,)", "p(,)", "p(t1)x", "p(t1,p(t2)", "a,b", "(t1)", "pt1", "p()()",
		strings.Repeat("p(", maxNesting+1) + "t1" + strings.Repeat(")", maxNesting+1)} {
		cases["cover "+strconv.Quote(bad)] = raw(Parity, "t5", bad)
	}
	for name, in := range cases {
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

// mssim -json writes every peer's Assigned sequence with these bytes,
// the ones encoding/json wrote for the struct that spelled identity out,
// and the experiment record readers read them back.
func TestPacketJSONGolden(t *testing.T) {
	inner := NewParity([]Packet{NewData(7), NewData(8)}, 8.5)
	nested := NewParity([]Packet{NewData(5), inner}, 8.75)
	nested.Payload = []byte{0xde, 0xad, 0xbe, 0xef}
	s := Sequence{NewData(5), NewDataPayload(-3, []byte{}), nested, NewParity([]Packet{NewData(1)}, 1e-7),
		NewParity([]Packet{NewData(1)}, 1e21), NewParity([]Packet{NewData(1)}, -2.5e-300),
		{Index: math.MaxInt64, Pos: math.MaxFloat64}}
	const golden = `[{"Kind":0,"Index":5,"Covers":null,"Pos":5,"Payload":null},` +
		`{"Kind":0,"Index":-3,"Covers":null,"Pos":-3,"Payload":""},` +
		`{"Kind":1,"Index":0,"Covers":["t5","p(t7,t8)"],"Pos":8.75,"Payload":"3q2+7w=="},` +
		`{"Kind":1,"Index":0,"Covers":["t1"],"Pos":1e-7,"Payload":null},` +
		`{"Kind":1,"Index":0,"Covers":["t1"],"Pos":1e+21,"Payload":null},` +
		`{"Kind":1,"Index":0,"Covers":["t1"],"Pos":-2.5e-300,"Payload":null},` +
		`{"Kind":0,"Index":9223372036854775807,"Covers":null,"Pos":1.7976931348623157e+308,"Payload":null}]`
	b, err := json.Marshal(s)
	if err != nil || string(b) != golden {
		t.Fatalf("JSON %s (%v),\nwant %s", b, err, golden)
	}
	const nestedGolden = `{"Kind":1,"Index":0,"Covers":["t5","p(t7,t8)"],"Pos":8.75,"Payload":"3q2+7w=="}`
	if b, err := json.Marshal(nested); err != nil || string(b) != nestedGolden {
		t.Fatalf("JSON %s (%v),\nwant %s", b, err, nestedGolden)
	}
	var back Sequence
	if err := json.Unmarshal(b, &back); err != nil || !reflect.DeepEqual(back, s) {
		t.Fatalf("read back %#v (%v),\nwant %#v", back, err, s)
	}
	if _, err := json.Marshal(Packet{Pos: math.NaN()}); err == nil {
		t.Error("a NaN position marshalled")
	}
	if _, err := json.Marshal(Sequence{NewData(1), {Pos: math.Inf(-1)}}); err == nil {
		t.Error("an infinite position marshalled")
	}
	if b, err := json.Marshal(struct{ A, B Sequence }{B: Sequence{}}); err != nil || string(b) != `{"A":null,"B":[]}` {
		t.Errorf("nil and empty sequences marshal to %s (%v)", b, err)
	}
	for _, bad := range []string{
		`{"Kind":0,"Index":2,"Covers":["t1"],"Pos":2,"Payload":null}`,
		`{"Kind":1,"Index":0,"Covers":["t1","x"],"Pos":2,"Payload":null}`,
		`{"Kind":2,"Index":0,"Covers":null,"Pos":2,"Payload":null}`,
		`{"Kind":"data"}`,
	} {
		var p Packet
		if err := json.Unmarshal([]byte(bad), &p); err == nil {
			t.Errorf("%s read as %v", bad, p)
		}
	}
}

// What a Sequence element costs: 48 bytes and no string, and a content
// sequence or a payload-free packet one allocation in all.
func TestPacketRepresentation(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n > 48 {
		t.Errorf("seq.Packet is %d bytes, want <= 48", n)
	}
	typ := reflect.TypeOf(Packet{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() == reflect.String {
			t.Errorf("seq.Packet carries string field %s", f.Name)
		}
	}
	if n := testing.AllocsPerRun(50, func() { Range(1, 30000) }); n != 1 {
		t.Errorf("Range(1, 30000): %.0f allocs, want 1", n)
	}
}

// FuzzPacketIdentity decodes packets one after another from arbitrary
// bytes. Nothing panics; every packet accepted re-encodes to the bytes
// it came from; and over every pair decoded, SameIdentity holds exactly
// when the keys are equal, CompareIdentity is 0 exactly then and
// antisymmetric, and equal identities hash equal.
func FuzzPacketIdentity(f *testing.F) {
	inner := NewParity([]Packet{NewData(7), NewData(8)}, 8.5)
	nested := NewParity([]Packet{NewData(5), inner}, 8.75)
	other := NewParity([]Packet{inner, NewData(5)}, 9)
	for _, s := range []Sequence{
		{NewData(5), inner, nested, nested, other, NewParity([]Packet{NewData(7), NewData(8)}, 3)},
		{NewDataPayload(-1, []byte{1, 2}), NewParity(nil, 1), NewParity([]Packet{nested, nested}, 2), NewData(5)},
		{NewParity([]Packet{NewData(math.MinInt64), NewData(0)}, 0), NewParity([]Packet{NewData(0)}, 0)},
	} {
		var b []byte
		for _, p := range s {
			b = AppendPacket(b, p)
		}
		f.Add(b)
	}
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 8, 'p', '(', 't', '1', ',', 't', '2', ')', 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		r := wire.NewReader(in)
		var pkts Sequence
		for {
			probe := r
			left := probe.Rest()
			if len(left) == 0 {
				break
			}
			p := ReadPacket(&r)
			if r.Err() != nil {
				break
			}
			after := r
			used := left[:len(left)-len(after.Rest())]
			if enc := AppendPacket(nil, p); !bytes.Equal(enc, used) {
				t.Fatalf("%s decoded from %x re-encodes to %x", p.Key(), used, enc)
			}
			pkts = append(pkts, p)
		}
		for i := range pkts {
			for j := range pkts {
				a, b := &pkts[i], &pkts[j]
				same, c := SameIdentity(a, b), CompareIdentity(a, b)
				if same != (a.Key() == b.Key()) || same != (c == 0) || c != -CompareIdentity(b, a) {
					t.Fatalf("%s vs %s: SameIdentity %v, CompareIdentity %d", a.Key(), b.Key(), same, c)
				}
				if same && a.Hash() != b.Hash() {
					t.Fatalf("%s hashes %x and %x", a.Key(), a.Hash(), b.Hash())
				}
			}
		}
	})
}
