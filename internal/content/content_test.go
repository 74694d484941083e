package content

import (
	"bytes"
	"math/rand"
	"testing"

	"p2pmss/internal/parity"
)

func TestContentPacketization(t *testing.T) {
	data := []byte("hello, multi-source streaming world")
	c := New("movie", data, 8)
	if c.ID() != "movie" || c.Size() != len(data) || c.PacketSize() != 8 {
		t.Errorf("basic accessors wrong: %v %v %v", c.ID(), c.Size(), c.PacketSize())
	}
	want := int64((len(data) + 7) / 8)
	if c.NumPackets() != want {
		t.Errorf("NumPackets = %d, want %d", c.NumPackets(), want)
	}
	p1 := c.Packet(1)
	if !bytes.Equal(p1.Payload, data[:8]) {
		t.Errorf("packet 1 payload = %q", p1.Payload)
	}
	last := c.Packet(c.NumPackets())
	if len(last.Payload) != len(data)%8 && len(data)%8 != 0 {
		t.Errorf("last payload len = %d", len(last.Payload))
	}
	s := c.Sequence()
	if int64(len(s)) != c.NumPackets() {
		t.Errorf("sequence len = %d", len(s))
	}
}

func TestContentDefaultID(t *testing.T) {
	a := New("", []byte("abc"), 4)
	b := New("", []byte("abc"), 4)
	if a.ID() == "" || a.ID() != b.ID() {
		t.Errorf("digest IDs: %q vs %q", a.ID(), b.ID())
	}
	if New("", []byte("abd"), 4).ID() == a.ID() {
		t.Error("different data same ID")
	}
}

func TestContentPanics(t *testing.T) {
	c := New("x", []byte("abcd"), 2)
	for name, fn := range map[string]func(){
		"zero packet size": func() { New("x", nil, 0) },
		"packet 0":         func() { c.Packet(0) },
		"packet beyond":    func() { c.Packet(3) },
		"assembler size":   func() { NewAssembler(4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAssemblerRoundTrip(t *testing.T) {
	data := make([]byte, 999)
	rand.New(rand.NewSource(1)).Read(data)
	c := New("m", data, 16)
	a := NewAssembler(len(data), 16)
	if a.Complete() {
		t.Error("empty assembler complete")
	}
	for _, p := range c.Sequence() {
		a.Add(p)
	}
	got, ok := a.Bytes()
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("round trip failed: ok=%v", ok)
	}
	if len(a.Missing()) != 0 {
		t.Errorf("Missing = %v", a.Missing())
	}
}

func TestAssemblerWithParityLoss(t *testing.T) {
	data := make([]byte, 640)
	rand.New(rand.NewSource(2)).Read(data)
	c := New("m", data, 32)
	enh := parity.Enhance(c.Sequence(), 3)
	a := NewAssembler(len(data), 32)
	// Drop one packet per enhanced segment.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < len(enh); i += 4 {
		end := i + 4
		if end > len(enh) {
			end = len(enh)
		}
		drop := i + rng.Intn(end-i)
		for j := i; j < end; j++ {
			if j != drop {
				a.Add(enh[j])
			}
		}
	}
	got, ok := a.Bytes()
	if !ok {
		t.Fatalf("incomplete: missing %v", a.Missing())
	}
	if !bytes.Equal(got, data) {
		t.Error("recovered bytes differ")
	}
	if a.Recovered() == 0 {
		t.Error("no recovery happened")
	}
}

func TestAssemblerIncomplete(t *testing.T) {
	c := New("m", []byte("0123456789"), 2)
	a := NewAssembler(10, 2)
	a.Add(c.Packet(1))
	a.Add(c.Packet(3))
	if a.Complete() {
		t.Error("complete with gaps")
	}
	if _, ok := a.Bytes(); ok {
		t.Error("Bytes ok with gaps")
	}
	if a.Have() != 2 {
		t.Errorf("Have = %d", a.Have())
	}
	miss := a.Missing()
	if len(miss) != 3 || miss[0] != 2 {
		t.Errorf("Missing = %v", miss)
	}
}
