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

// The cache returns the value Enhance returns, and returns the same one
// every time.
func TestEnhancedEqualsEnhance(t *testing.T) {
	c := shortTail(1)
	for _, h := range []int{1, 2, 3, 7} {
		want := parity.Enhance(c.Sequence(), h)
		got := c.Enhanced(h)
		samePackets(t, got, want)
		if again := c.Enhanced(h); &again[0] != &got[0] {
			t.Errorf("h=%d: a second call derived the sequence again", h)
		}
		for _, p := range want {
			pl, ok := c.ParityPayload(p)
			if p.IsData() == ok || ok && !bytes.Equal(pl, p.Payload) {
				t.Errorf("h=%d: ParityPayload(%s) = %x, %v; the packet carries %x", h, p.Key(), pl, ok, p.Payload)
			}
		}
	}
	inner := seq.NewParity([]seq.Packet{seq.NewData(7), seq.NewData(8)}, 7.5)
	nested := seq.NewParity([]seq.Packet{seq.NewData(5), inner}, 7.25)
	if _, ok := c.ParityPayload(nested); ok {
		t.Error("the table holds a nested parity no enhanced content sequence contains")
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
		samePackets(t, c.Enhanced(h), parity.Enhance(c.Sequence(), h))
	}
	if got := len(c.enhanced); got != maxIntervals {
		t.Errorf("%d intervals cached, want the bound %d", got, maxIntervals)
	}
	h := maxIntervals + 1
	a, b := c.Enhanced(h), c.Enhanced(h)
	if &a[0] == &b[0] {
		t.Errorf("h=%d is past the bound but was cached", h)
	}
	if _, ok := c.ParityPayload(a[0]); ok {
		t.Errorf("h=%d is past the bound but its parity %s is in the table", h, a[0].Key())
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
	want := parity.Enhance(c.Sequence(), 2)
	s.Remove(c.ID())
	s.Remove("never stored")
	if c.enhanced != nil || c.parity != nil {
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

// Many sessions ask for the same derivation at once while the content is
// removed and re-added; run under -race. Nobody may write through what
// Enhanced returns, so the content bytes and every reader's view hold.
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
			for i := 0; i < 50; i++ {
				got := seq.Div(c.Enhanced(h), 3, g%3)
				exp := seq.Div(want[h], 3, g%3)
				for j := range exp {
					if !seq.SameIdentity(&got[j], &exp[j]) || !bytes.Equal(got[j].Payload, exp[j].Payload) {
						t.Errorf("goroutine %d: share packet %d is %v, want %v", g, j, got[j], exp[j])
						return
					}
					if !exp[j].IsData() {
						if pl, ok := c.ParityPayload(exp[j]); ok && !bytes.Equal(pl, exp[j].Payload) {
							t.Errorf("goroutine %d: table payload of %v differs", g, exp[j])
							return
						}
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
