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
	if len(s) == 0 {
		return nil
	}
	out := make(seq.Sequence, 0, len(s)+len(s)/h+1)
	// Every packet is covered once: the parities' identities take one
	// block of nodes and one of covers.
	var a seq.Arena
	a.Reserve((len(s)+h-1)/h, len(s))
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

// XOR returns the bitwise exclusive-or of the given byte slices, padded to
// the longest length. It returns nil when every input is empty (the
// accounting-only mode used by the simulator, where payloads are nil).
func XOR(bufs [][]byte) []byte {
	maxLen := 0
	for _, b := range bufs {
		if len(b) > maxLen {
			maxLen = len(b)
		}
	}
	if maxLen == 0 {
		return nil
	}
	out := make([]byte, maxLen)
	for _, b := range bufs {
		subtle.XORBytes(out, out, b)
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
