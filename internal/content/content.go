// Package content maps multimedia content bytes to and from the packet
// model of §2: a content is decomposed into a sequence of fixed-size
// packets t_1 … t_l, and an Assembler reconstructs the original bytes at
// the leaf peer from (possibly reordered, duplicated, parity-recovered)
// packet arrivals.
package content

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"p2pmss/internal/parity"
	"p2pmss/internal/seq"
)

// Content is a multimedia content held by a contents peer.
type Content struct {
	id         string
	data       []byte
	packetSize int
}

// New wraps data as a content with the given packet size. The ID defaults
// to a digest of the data when empty.
func New(id string, data []byte, packetSize int) *Content {
	if packetSize <= 0 {
		panic(fmt.Sprintf("content: packet size %d must be positive", packetSize))
	}
	if id == "" {
		sum := sha256.Sum256(data)
		id = hex.EncodeToString(sum[:8])
	}
	return &Content{id: id, data: data, packetSize: packetSize}
}

// ID returns the content identifier.
func (c *Content) ID() string { return c.id }

// Size returns the content length in bytes.
func (c *Content) Size() int { return len(c.data) }

// PacketSize returns the packet payload size in bytes.
func (c *Content) PacketSize() int { return c.packetSize }

// NumPackets returns l, the number of packets in the sequence.
func (c *Content) NumPackets() int64 {
	if len(c.data) == 0 {
		return 0
	}
	return int64((len(c.data) + c.packetSize - 1) / c.packetSize)
}

// Packet returns data packet t_k (1-based) with its payload slice.
func (c *Content) Packet(k int64) seq.Packet {
	if k < 1 || k > c.NumPackets() {
		panic(fmt.Sprintf("content: packet %d outside 1..%d", k, c.NumPackets()))
	}
	lo := int(k-1) * c.packetSize
	hi := lo + c.packetSize
	if hi > len(c.data) {
		hi = len(c.data)
	}
	return seq.NewDataPayload(k, c.data[lo:hi])
}

// Sequence returns the full payload-backed packet sequence ⟨t_1 … t_l⟩.
func (c *Content) Sequence() seq.Sequence {
	l := c.NumPackets()
	s := make(seq.Sequence, 0, l)
	for k := int64(1); k <= l; k++ {
		s = append(s, c.Packet(k))
	}
	return s
}

// Assembler reconstructs content bytes at a leaf peer. Feed it every
// received packet (data or parity, any order, duplicates fine); parity
// recovery runs automatically.
type Assembler struct {
	size       int // total bytes
	packetSize int
	numPackets int64
	recov      *parity.Recoverer
	// have counts the distinct in-range data packets present, maintained
	// incrementally from the recoverer's data hook. The leaf consults
	// Have around every arrival; a per-arrival scan of all l packets
	// made delivery O(l²) and fell behind the τ(h+1)/h receipt rate on
	// large contents.
	have int64
}

// NewAssembler prepares reassembly of a content with the given byte size
// and packet size.
func NewAssembler(size, packetSize int) *Assembler {
	if packetSize <= 0 {
		panic(fmt.Sprintf("content: packet size %d must be positive", packetSize))
	}
	n := int64(0)
	if size > 0 {
		n = int64((size + packetSize - 1) / packetSize)
	}
	a := &Assembler{size: size, packetSize: packetSize, numPackets: n, recov: parity.NewSizedRecoverer(int(n))}
	a.recov.OnData(func(k int64) {
		// The hook fires once per index; out-of-range indices (a peer
		// serving a different content) must not count toward completion.
		if k >= 1 && k <= a.numPackets {
			a.have++
		}
	})
	return a
}

// Add feeds one received packet and reports whether it is the first
// receipt of that packet (false for a duplicate delivery).
func (a *Assembler) Add(p seq.Packet) bool { return a.recov.Add(p) }

// Have returns how many of the content's data packets are present
// (received or recovered). O(1): maintained incrementally as packets
// arrive or are derived.
func (a *Assembler) Have() int64 { return a.have }

// Missing lists the content indices still absent.
func (a *Assembler) Missing() []int64 {
	var out []int64
	for k := int64(1); k <= a.numPackets; k++ {
		if !a.recov.HasData(k) {
			out = append(out, k)
		}
	}
	return out
}

// Complete reports whether every data packet is present.
func (a *Assembler) Complete() bool { return a.Have() == a.numPackets }

// Recovered returns how many packets parity recovery derived.
func (a *Assembler) Recovered() int { return a.recov.Recovered() }

// Bytes reconstructs the content. ok is false while packets are missing.
func (a *Assembler) Bytes() (data []byte, ok bool) {
	if !a.Complete() {
		return nil, false
	}
	out := make([]byte, 0, a.size)
	for k := int64(1); k <= a.numPackets; k++ {
		b, _ := a.recov.DataPayload(k)
		out = append(out, b...)
	}
	if len(out) < a.size {
		return nil, false // truncated payloads (corrupt stream)
	}
	return out[:a.size], true
}

// Materialize computes the packet subsequence a peer must transmit from
// the root content sequence and a derivation path — the chain of
// (mark, enhance, divide) steps applied by successive coordination levels
// (§3.3/§3.4). Parent and child compute identical subsequences from the
// same derivation, which is what the live runtime ships in control
// packets instead of whole sequences.
func Materialize(root seq.Sequence, steps []DivStep) seq.Sequence {
	s := root
	for _, st := range steps {
		mark := st.Mark
		if mark > len(s) {
			mark = len(s)
		}
		if mark < 0 {
			mark = 0
		}
		tail := s[mark:]
		if st.Interval > 0 {
			tail = parity.Enhance(tail, st.Interval)
		} else {
			tail = tail.Clone()
		}
		if st.Parts <= 0 || st.Index < 0 || st.Index >= st.Parts {
			panic(fmt.Sprintf("content: bad derivation step %+v", st))
		}
		s = seq.Div(tail, st.Parts, st.Index)
	}
	return s
}

// DivStep is one level of a derivation: start at the Mark-th packet of
// the parent subsequence, enhance with parity interval Interval (0 = no
// enhancement), divide into Parts subsequences and take the Index-th.
type DivStep struct {
	Mark     int `json:"mark"`
	Interval int `json:"interval"`
	Parts    int `json:"parts"`
	Index    int `json:"index"`
}
