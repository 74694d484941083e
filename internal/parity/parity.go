// Package parity implements the XOR parity scheme of §3.2 of the paper:
// recovery segments, the Esq enhancement operator producing [pkt]^h, the
// per-peer division of enhanced sequences, and loss recovery at the leaf
// peer.
//
// A packet sequence pkt is split into recovery segments of h consecutive
// packets. For each segment one parity packet — the XOR of the segment's
// packets — is inserted into the stream. The paper's case analysis for the
// insertion offset (j = d mod h) contradicts its own worked example
// ⟨t⟨1,2⟩, t1, t2, t3, t⟨3,4⟩, t4, t5, t6, t⟨5,6⟩⟩; the example's pattern
// is a rotation over the h+1 possible offsets, parity of segment d landing
// at offset d mod (h+1). We implement the example (the rotation is what
// spreads parity packets across peers under round-robin division); see
// DESIGN.md §2.
//
// Because coordination re-enhances subsequences at every tree level
// (§3.6), segments may contain parity packets, producing nested parities
// such as t⟨5,⟨7,8⟩⟩. The Recoverer (recoverer.go) resolves nested
// parities to the closure of the recovery rules.
package parity

import (
	"crypto/subtle"
	"fmt"

	"p2pmss/internal/seq"
)

// Enhance implements Esq(pkt, h): it returns the enhanced sequence [pkt]^h
// obtained by inserting one XOR parity packet per recovery segment of h
// packets. h must be positive. A short final segment (fewer than h
// packets) still receives a parity packet so every packet is protected.
//
// |Enhance(s, h)| = |s|·(h+1)/h (up to the final partial segment).
func Enhance(s seq.Sequence, h int) seq.Sequence {
	if h <= 0 {
		panic(fmt.Sprintf("parity: Enhance interval h=%d must be positive", h))
	}
	var one [1]seq.Sequence
	enhanceDivide(s, h, one[:])
	return one[0]
}

// EnhanceDivide returns the k round-robin parts of Esq(s, h) — part i is
// seq.Div(Enhance(s, h), k, i) — in one pass, without building the
// enhanced sequence: the parts are cut from one block of packets and
// the parities' identities from one seq.Arena. A part with no packet is
// nil. h and k must be positive.
func EnhanceDivide(s seq.Sequence, h, k int) []seq.Sequence {
	if h <= 0 || k <= 0 {
		panic(fmt.Sprintf("parity: EnhanceDivide(h=%d, k=%d) must be positive", h, k))
	}
	parts := make([]seq.Sequence, k)
	enhanceDivide(s, h, parts)
	return parts
}

// enhanceDivide fills the len(parts) parts of Esq(s, h).
func enhanceDivide(s seq.Sequence, h int, parts []seq.Sequence) {
	k, n := len(parts), enhancedLen(len(s), h)
	block := make(seq.Sequence, n)
	for i := range min(k, n) {
		size := (n - i + k - 1) / k
		parts[i], block = block[:size:size], block[size:]
	}
	// Every packet is covered once: the parities' identities take one
	// block of nodes and one of covers.
	var a seq.Arena
	a.Reserve((len(s)+h-1)/h, len(s))
	c := cursor{parts: parts}
	for d := 0; d*h < len(s); d++ {
		start, end, offset := segment(len(s), h, d)
		c.putAll(s[start : start+offset])
		p := makeParity(&a, s, start, end, offset)
		c.put(&p)
		c.putAll(s[start+offset : end])
	}
}

// cursor deals packets round robin into parts: the j-th put lands in
// parts[j%len(parts)][j/len(parts)].
type cursor struct {
	parts []seq.Sequence
	i, at int
}

func (c *cursor) put(p *seq.Packet) {
	c.parts[c.i][c.at] = *p
	if c.i++; c.i == len(c.parts) {
		c.i, c.at = 0, c.at+1
	}
}

// putAll puts the packets of run in order, in one copy when there is
// one part (Enhance).
func (c *cursor) putAll(run seq.Sequence) {
	if len(c.parts) == 1 {
		c.at += copy(c.parts[0][c.at:], run)
		return
	}
	for j := range run {
		c.put(&run[j])
	}
}

// enhancedLen is |Esq(s, h)| for |s| = l: one parity per segment.
func enhancedLen(l, h int) int { return l + (l+h-1)/h }

// segment returns recovery segment d of a sequence of l packets,
// s[start:end], and the offset its parity is inserted at: d mod (h+1),
// or the segment's end if it is shorter.
func segment(l, h, d int) (start, end, offset int) {
	start = d * h
	end = min(start+h, l)
	return start, end, min(d%(h+1), end-start)
}

// makeParity builds the parity packet for s[segStart:segEnd], positioned
// for insertion at the given offset within the segment, its identity in a.
func makeParity(a *seq.Arena, s seq.Sequence, segStart, segEnd, offset int) seq.Packet {
	segment := s[segStart:segEnd]
	var lo, hi float64
	switch {
	case offset == 0:
		// Before the segment: between the previous packet and the first.
		hi = segment[0].Pos
		if segStart > 0 {
			lo = s[segStart-1].Pos
		} else {
			lo = hi - 1
		}
	case offset >= len(segment):
		// After the segment: between the last packet and the next.
		lo = segment[len(segment)-1].Pos
		if segEnd < len(s) {
			hi = s[segEnd].Pos
		} else {
			hi = lo + 1
		}
	default:
		lo = segment[offset-1].Pos
		hi = segment[offset].Pos
	}
	p := a.NewParity(segment, seq.MidPos(lo, hi))
	p.Payload = xorPayloads(segment)
	return p
}

// xorPayloads is XOR over the packets' payloads, read in place: the
// simulator's sequences carry none, and then a segment costs one pass
// and no allocation.
func xorPayloads(pkts []seq.Packet) []byte {
	maxLen := 0
	for i := range pkts {
		if n := len(pkts[i].Payload); n > maxLen {
			maxLen = n
		}
	}
	if maxLen == 0 {
		return nil
	}
	out := make([]byte, maxLen)
	for i := range pkts {
		subtle.XORBytes(out, out, pkts[i].Payload)
	}
	return out
}

// PerPeerRate returns the transmission rate τ(h+1)/(hH) each of H peers
// sends an h-enhanced division of a rate-τ content at (§3.2).
func PerPeerRate(contentRate float64, h, H int) float64 {
	return contentRate * float64(h+1) / float64(h*H)
}

// ReceiptRate returns the aggregate rate τ(h+1)/h arriving at the leaf
// peer when H peers send the h-enhanced division of a rate-τ content.
func ReceiptRate(contentRate float64, h int) float64 {
	return contentRate * float64(h+1) / float64(h)
}
