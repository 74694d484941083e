package engine

import (
	"math/rand"
	"testing"

	"p2pmss/internal/parity"
	"p2pmss/internal/seq"
)

// givenSet.has answers what a map of the Given packets' identity keys
// answers: for dense data (the bitset), data too sparse for it, and
// parities nested over parities or recurring at another position (the
// hashed set), probed with every packet of the stream the parts came
// from and of a second enhancement of it.
func TestGivenSetMatchesKeyMap(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 400; trial++ {
		l := int64(1 + rng.Intn(200))
		content := seq.Range(1, l)
		if trial%4 == 3 { // sparse: a malformed remote share
			content = nil
			for k := int64(1); k <= l; k++ {
				content = append(content, seq.NewData(k*int64(100+rng.Intn(100))))
			}
		}
		stream := parity.Enhance(content, 1+rng.Intn(8))
		if trial%2 == 1 { // a peer's re-enhanced share, parities over parities
			stream = parity.Enhance(seq.Div(stream, 2, rng.Intn(2)), 1+rng.Intn(8))
		}
		k := 1 + rng.Intn(6)
		mark := rng.Intn(len(stream) + 1)
		parts := parity.EnhanceDivide(stream[mark:], 1+rng.Intn(8), k)
		given := parts[1:]
		if trial%3 == 0 {
			given = append(given, seq.Sequence{stream[rng.Intn(len(stream))]}) // a parity recurring as is
		}
		want := make(map[string]bool)
		for _, g := range given {
			for _, p := range g {
				want[p.Key()] = true
			}
		}
		g := newGivenSet(given)
		probes := append(append(stream.Clone(), parity.Enhance(stream, 3)...), parts[0]...)
		for _, g := range given {
			for _, p := range g {
				moved := p // the same identity at another position
				moved.Pos += 0.5
				probes = append(probes, p, moved)
			}
		}
		for i := range probes {
			if got := g.has(&probes[i]); got != want[probes[i].Key()] {
				t.Fatalf("trial %d: has(%v) = %v, want %v", trial, probes[i], got, want[probes[i].Key()])
			}
		}
	}
}
