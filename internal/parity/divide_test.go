package parity

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"p2pmss/internal/seq"
)

// enhanceStep is Esq(s, h) built the way Enhance first built it, segment
// by segment with its own offset rule, as the reference EnhanceDivide
// and Enhance are checked against.
func enhanceStep(s seq.Sequence, h int) seq.Sequence {
	if len(s) == 0 {
		return nil
	}
	var out seq.Sequence
	var a seq.Arena
	for d := 0; d*h < len(s); d++ {
		segStart := d * h
		segEnd := segStart + h
		if segEnd > len(s) {
			segEnd = len(s)
		}
		segment := s[segStart:segEnd]
		offset := d % (h + 1)
		if offset > len(segment) {
			offset = len(segment)
		}
		p := makeParity(&a, s, segStart, segEnd, offset)
		out = append(out, segment[:offset]...)
		out = append(out, p)
		out = append(out, segment[offset:]...)
	}
	return out
}

// sameEnhanced fails t unless got and want hold the same packets:
// identity (covers included), Index, Pos bits and payload bytes.
func sameEnhanced(t *testing.T, label string, got, want seq.Sequence) {
	t.Helper()
	if len(got) != len(want) || (got == nil) != (want == nil) {
		t.Fatalf("%s: %d packets (nil %v), want %d (nil %v)", label, len(got), got == nil, len(want), want == nil)
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if !seq.SameIdentity(g, w) || g.Index != w.Index || math.Float64bits(g.Pos) != math.Float64bits(w.Pos) ||
			!bytes.Equal(g.Payload, w.Payload) || (g.Payload == nil) != (w.Payload == nil) {
			t.Fatalf("%s: packet %d is %v@%v %x, want %v@%v %x", label, i, g, g.Pos, g.Payload, w, w.Pos, w.Payload)
		}
	}
}

// divideInput draws a content of l packets, payload-backed or not, and
// when nested, one part of a division of its enhancement: a sequence that
// already holds parities, as a peer's stream does (§3.6).
func divideInput(rng *rand.Rand, l int, payloads, nested bool) seq.Sequence {
	s := make(seq.Sequence, l)
	for k := range s {
		s[k] = seq.NewData(int64(k + 1))
		if payloads {
			p := make([]byte, 1+rng.Intn(8))
			rng.Read(p)
			s[k].Payload = p
		}
	}
	if nested && l > 0 {
		k := 1 + rng.Intn(3)
		s = seq.Div(enhanceStep(s, 1+rng.Intn(6)), k, rng.Intn(k))
	}
	return s
}

// EnhanceDivide(s, h, k)[i] and Enhance(s, h) equal the step-by-step Esq
// divided round robin, for h up to 12, k up to 16, payload-backed and
// nil-payload inputs, last partial segments and nested parities.
func TestEnhanceDivideMatchesDivOfEnhance(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for h := 1; h <= 12; h++ {
		for k := 1; k <= 16; k++ {
			for trial := 0; trial < 4; trial++ {
				payloads, nested := trial%2 == 1, trial >= 2
				s := divideInput(rng, rng.Intn(5*h+3), payloads, nested)
				label := fmt.Sprintf("h=%d k=%d len=%d payloads=%v nested=%v", h, k, len(s), payloads, nested)
				esq := enhanceStep(s, h)
				sameEnhanced(t, label+" Enhance", Enhance(s, h), esq)
				parts := EnhanceDivide(s, h, k)
				if len(parts) != k {
					t.Fatalf("%s: %d parts", label, len(parts))
				}
				for i := range parts {
					want := seq.Div(esq, k, i)
					sameEnhanced(t, fmt.Sprintf("%s EnhanceDivide part %d", label, i), parts[i], want)
				}
			}
		}
	}
}

func TestEnhanceDividePanics(t *testing.T) {
	s := seq.Range(1, 4)
	for label, f := range map[string]func(){
		"EnhanceDivide h=0": func() { EnhanceDivide(s, 0, 1) },
		"EnhanceDivide k=0": func() { EnhanceDivide(s, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", label)
				}
			}()
			f()
		}()
	}
}
