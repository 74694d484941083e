package content

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"p2pmss/internal/parity"
	"p2pmss/internal/seq"
)

// lossyStream is c's h = 3 enhanced sequence with one packet of every
// recovery segment lost, so parity recovers a quarter of the content.
func lossyStream(c *Content) (kept, lost seq.Sequence) {
	rng := rand.New(rand.NewSource(5))
	enh := parity.Enhance(c.Sequence(), 3)
	for i := 0; i < len(enh); i += 4 {
		drop := i + rng.Intn(min(i+4, len(enh))-i)
		for j := i; j < min(i+4, len(enh)); j++ {
			if j == drop {
				lost = append(lost, enh[j])
			} else {
				kept = append(kept, enh[j])
			}
		}
	}
	return kept, lost
}

// Add keeps no reference to a payload: the caller scribbles over every
// payload right after Add — as a transport recycling its buffer does —
// and Bytes is still the content, recovered packets included.
func TestAssemblerCopiesPayloads(t *testing.T) {
	data := make([]byte, 1000)
	rand.New(rand.NewSource(6)).Read(data)
	c := New("m", data, 32)
	kept, _ := lossyStream(c)
	a := NewAssembler(len(data), 32)
	for _, p := range kept {
		p.Payload = bytes.Clone(p.Payload)
		a.Add(p)
		for i := range p.Payload {
			p.Payload[i] = 0xee
		}
	}
	if got, ok := a.Bytes(); !ok || !bytes.Equal(got, data) {
		t.Fatalf("Bytes = %v after the payloads were overwritten", ok)
	}
	if a.Recovered() == 0 {
		t.Fatal("nothing recovered")
	}
}

// An assembler fed payload-free packets — the simulator's — allocates no
// content buffer, and cannot produce the content.
func TestAssemblerPayloadFreeAllocatesNoContent(t *testing.T) {
	const size, packetSize = 64 << 10, 64
	var pkts seq.Sequence
	for k := int64(1); k <= size/packetSize; k++ {
		pkts = append(pkts, seq.NewData(k))
	}
	asms := []*Assembler{NewAssembler(size, packetSize), NewAssembler(size, packetSize)}
	next := 0
	// AllocsPerRun runs the function once before measuring: one fresh
	// assembler each time.
	if allocs := testing.AllocsPerRun(1, func() {
		a := asms[next]
		next++
		for _, p := range pkts {
			a.Add(p)
		}
	}); allocs != 0 {
		t.Fatalf("assembling %d payload-free packets allocated %.0f times", len(pkts), allocs)
	}
	if !asms[1].Complete() {
		t.Fatal("incomplete")
	}
	if _, ok := asms[1].Bytes(); ok {
		t.Fatal("Bytes ok without a single payload byte")
	}
}

// Bytes of a complete content is the assembler's buffer: no copy, no
// allocation, the same slice every call.
func TestAssemblerBytesAllocatesNothing(t *testing.T) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(7)).Read(data)
	c := New("m", data, 64)
	kept, _ := lossyStream(c)
	a := NewAssembler(len(data), 64)
	for _, p := range kept {
		a.Add(p)
	}
	first, ok := a.Bytes()
	if !ok || !bytes.Equal(first, data) {
		t.Fatal("incomplete")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if got, _ := a.Bytes(); &got[0] != &first[0] {
			t.Fatal("Bytes returned a different buffer")
		}
	}); allocs != 0 {
		t.Fatalf("Bytes allocated %.0f times", allocs)
	}
}

// Once the content is complete nothing writes to the buffer Bytes
// returned: duplicates and the late first arrivals of recovered packets,
// carrying bytes that differ from the content, change nothing — checked
// under the race detector by a reader running alongside.
func TestAssemblerLateArrivalsWriteNothing(t *testing.T) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(8)).Read(data)
	c := New("m", data, 64)
	kept, lost := lossyStream(c)
	a := NewAssembler(len(data), 64)
	for _, p := range kept {
		a.Add(p)
	}
	got, ok := a.Bytes()
	if !ok {
		t.Fatal("incomplete")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if !bytes.Equal(got, data) {
				t.Error("the content changed under its reader")
				return
			}
		}
	}()
	for _, p := range append(lost, kept...) {
		p.Payload = bytes.Repeat([]byte{0xee}, len(p.Payload))
		a.Add(p)
	}
	wg.Wait()
	if !bytes.Equal(got, data) {
		t.Fatal("late arrivals wrote into the content")
	}
}
