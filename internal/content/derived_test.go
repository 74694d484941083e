package content

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"p2pmss/internal/parity"
	"p2pmss/internal/seq"
)

// shortTail is a content whose last packet is shorter than the rest, so
// the last parity XORs payloads of unequal length.
func shortTail(seed int64) *Content {
	data := make([]byte, 64*37+11)
	rand.New(rand.NewSource(seed)).Read(data)
	return New("movie", data, 64)
}

// samePackets requires got to be want packet for packet: identity
// (kind, index and covers, as the identity node spells them), position
// and payload bytes.
func samePackets(t *testing.T, got, want seq.Sequence) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d packets, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Kind() != w.Kind() || g.Index != w.Index || g.Key() != w.Key() || g.Pos != w.Pos ||
			!seq.SameIdentity(&g, &w) || !bytes.Equal(g.Payload, w.Payload) {
			t.Fatalf("packet %d is %+v, want %+v", i, g, w)
		}
	}
}

// esq is the simulator's Esq(content, h): payload-free.
func esq(c *Content, h int) seq.Sequence { return parity.Enhance(seq.Range(1, c.NumPackets()), h) }

// sameBytes requires XORPayload to write, for every packet of s, the
// bytes the payload-backed reference packet carries, reusing one buffer.
func sameBytes(t *testing.T, c *Content, s, ref seq.Sequence) {
	t.Helper()
	var buf []byte
	for i, p := range s {
		buf = c.XORPayload(buf[:0], p)
		if !bytes.Equal(buf, ref[i].Payload) {
			t.Fatalf("XORPayload(%s) = %x, the reference carries %x", p.Key(), buf, ref[i].Payload)
		}
	}
}

// The cache returns the simulator's payload-free sequence, and returns
// the same one every time; XORPayload writes each of its packets the
// bytes parity.Enhance(c.Sequence(), h) gives it.
func TestEnhancedEqualsEnhance(t *testing.T) {
	c := shortTail(1)
	for _, h := range []int{1, 2, 3, 7} {
		got := c.Enhanced(h)
		samePackets(t, got, esq(c, h))
		if again := c.Enhanced(h); &again[0] != &got[0] {
			t.Errorf("h=%d: a second call derived the sequence again", h)
		}
		sameBytes(t, c, got, parity.Enhance(c.Sequence(), h))
	}
	// The §3.6 nesting t⟨5,⟨7,8⟩⟩: a parity over a parity, as a later
	// coordination level builds it, and one reaching past the content.
	inner := seq.NewParity([]seq.Packet{c.Packet(7), c.Packet(8)}, 7.5)
	inner.Payload = parity.XOR([][]byte{c.Payload(7), c.Payload(8)})
	nested := seq.NewParity([]seq.Packet{c.Packet(5), inner}, 7.25)
	nested.Payload = parity.XOR([][]byte{c.Payload(5), inner.Payload})
	tail := seq.NewParity([]seq.Packet{c.Packet(c.NumPackets()), seq.NewData(c.NumPackets() + 1)}, 40)
	tail.Payload = c.Payload(c.NumPackets())
	sameBytes(t, c, seq.Sequence{inner, nested, tail}, seq.Sequence{inner, nested, tail})
}

// Writing a payload into a buffer that fits it allocates nothing.
func TestXORPayloadAllocs(t *testing.T) {
	c := shortTail(6)
	s := c.Enhanced(2)
	buf := c.XORPayload(nil, s[2])
	if n := testing.AllocsPerRun(100, func() {
		for _, p := range s {
			buf = c.XORPayload(buf[:0], p)
		}
	}); n != 0 {
		t.Errorf("writing %d payloads into a reused buffer: %.0f allocs, want 0", len(s), n)
	}
}

// Payload is Packet's bytes without the packet, and nil where Packet
// panics.
func TestPayload(t *testing.T) {
	c := shortTail(2)
	for k := int64(1); k <= c.NumPackets(); k++ {
		if got, want := c.Payload(k), c.Packet(k).Payload; len(got) == 0 || &got[0] != &want[0] || len(got) != len(want) {
			t.Fatalf("Payload(%d) is not Packet(%d).Payload", k, k)
		}
	}
	for _, k := range []int64{-1, 0, c.NumPackets() + 1, 1 << 62} {
		if got := c.Payload(k); got != nil {
			t.Errorf("Payload(%d) = %d bytes, want nil", k, len(got))
		}
	}
	if got := New("empty", nil, 8).Payload(1); got != nil {
		t.Errorf("empty content has a packet: %x", got)
	}
}

// A remote leaf chooses h: past maxIntervals distinct values the content
// still answers correctly but keeps nothing more.
func TestEnhancedIntervalBound(t *testing.T) {
	c := shortTail(3)
	for h := 1; h <= maxIntervals+3; h++ {
		samePackets(t, c.Enhanced(h), esq(c, h))
	}
	if got := len(c.enhanced); got != maxIntervals {
		t.Errorf("%d intervals cached, want the bound %d", got, maxIntervals)
	}
	h := maxIntervals + 1
	a, b := c.Enhanced(h), c.Enhanced(h)
	if &a[0] == &b[0] {
		t.Errorf("h=%d is past the bound but was cached", h)
	}
	if first := c.Enhanced(1); &first[0] != &c.Enhanced(1)[0] {
		t.Error("a cached interval was evicted")
	}
}

// Remove drops the derivation even when the caller keeps the content;
// sequences handed out earlier stay intact.
func TestStoreRemoveDropsDerived(t *testing.T) {
	c := shortTail(4)
	s := NewStore()
	s.Put(c)
	before := c.Enhanced(2)
	want := esq(c, 2)
	s.Remove(c.ID())
	s.Remove("never stored")
	if c.enhanced != nil {
		t.Error("Remove left the derivation in place")
	}
	samePackets(t, before, want)
	s.Put(c)
	after := c.Enhanced(2)
	if &after[0] == &before[0] {
		t.Error("the dropped derivation came back")
	}
	samePackets(t, after, want)
}

// Many sessions ask for the same derivation at once, and write their
// packets' payloads, while the content is removed and re-added; run
// under -race. Nobody may write through what Enhanced returns or through
// the content, so the content bytes and every reader's view hold.
func TestEnhancedConcurrent(t *testing.T) {
	c := shortTail(5)
	pristine := bytes.Clone(c.data)
	s := NewStore()
	s.Put(c)
	want := map[int]seq.Sequence{2: parity.Enhance(c.Sequence(), 2), 3: parity.Enhance(c.Sequence(), 3)}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := 2 + g%2
			var buf []byte
			for i := 0; i < 50; i++ {
				got := seq.Div(c.Enhanced(h), 3, g%3)
				exp := seq.Div(want[h], 3, g%3)
				for j := range exp {
					buf = c.XORPayload(buf[:0], got[j])
					if !seq.SameIdentity(&got[j], &exp[j]) || got[j].Payload != nil || !bytes.Equal(buf, exp[j].Payload) {
						t.Errorf("goroutine %d: share packet %d is %v with payload %x, want %v", g, j, got[j], buf, exp[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			s.Remove(c.ID())
			s.Put(c)
		}
	}()
	wg.Wait()
	if !bytes.Equal(c.data, pristine) {
		t.Error("content bytes changed")
	}
}
