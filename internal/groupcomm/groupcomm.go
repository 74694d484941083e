// Package groupcomm implements a causally ordering broadcast protocol in
// the style of the paper's reference [10] (Nakamura & Takizawa, "Causally
// Ordering Broadcast Protocol", ICDCS-14). The asynchronous multi-source
// streaming (AMS) models [3–5] that precede DCoP/TCoP have every contents
// peer exchange state information with all the others "by using a simple
// type of group communication protocol" — this package is that substrate,
// and internal/coord's AMS baseline uses its ordering guarantees.
//
// Each process stamps broadcasts with a vector clock; receivers delay
// delivery until all causal predecessors have been delivered (the
// standard causal broadcast delivery condition: for a message m from j
// with vector V, deliver at i once V[j] = delivered_i[j]+1 and
// V[k] ≤ delivered_i[k] for all k ≠ j).
package groupcomm

import (
	"fmt"
)

// Message is a causally stamped broadcast.
type Message struct {
	// From is the sending process.
	From int
	// Vector is the sender's vector clock at send time (inclusive of
	// this message).
	Vector []int
	// Body is the application payload.
	Body any
}

// Process is one member of the causal broadcast group. Processes are not
// safe for concurrent use; drive each from one goroutine (or the DES).
type Process struct {
	id        int
	n         int
	vector    []int // messages delivered per origin (own sends count as delivered)
	pending   []Message
	deliver   func(Message)
	delivered int64
	sent      int64
}

// NewProcess creates group member id of n, delivering ordered messages to
// the given callback.
func NewProcess(id, n int, deliver func(Message)) *Process {
	if id < 0 || id >= n {
		panic(fmt.Sprintf("groupcomm: id %d outside 0..%d", id, n-1))
	}
	return &Process{id: id, n: n, vector: make([]int, n), deliver: deliver}
}

// ID returns the process id.
func (p *Process) ID() int { return p.id }

// Delivered returns how many messages have been delivered (excluding own
// sends).
func (p *Process) Delivered() int64 { return p.delivered }

// Pending returns how many received messages await causal predecessors.
func (p *Process) Pending() int { return len(p.pending) }

// Send stamps a broadcast of body and returns the message to disseminate
// to all other members. The sender delivers its own message immediately
// (FIFO self-delivery).
func (p *Process) Send(body any) Message {
	p.vector[p.id]++
	p.sent++
	v := make([]int, p.n)
	copy(v, p.vector)
	return Message{From: p.id, Vector: v, Body: body}
}

// Receive accepts a message from the network, delivering it and any
// unblocked pending messages in causal order.
func (p *Process) Receive(m Message) error {
	if m.From < 0 || m.From >= p.n || len(m.Vector) != p.n {
		return fmt.Errorf("groupcomm: malformed message from %d with vector len %d", m.From, len(m.Vector))
	}
	if m.From == p.id {
		return nil // own broadcast echoes are ignored
	}
	if p.obsolete(m) {
		return nil // duplicate: already delivered
	}
	p.pending = append(p.pending, m)
	p.drain()
	return nil
}

// obsolete reports whether m was already delivered.
func (p *Process) obsolete(m Message) bool {
	return m.Vector[m.From] <= p.vector[m.From]
}

// deliverable implements the causal delivery condition.
func (p *Process) deliverable(m Message) bool {
	for k := 0; k < p.n; k++ {
		if k == m.From {
			if m.Vector[k] != p.vector[k]+1 {
				return false
			}
		} else if m.Vector[k] > p.vector[k] {
			return false
		}
	}
	return true
}

// drain delivers every pending message whose predecessors have arrived.
func (p *Process) drain() {
	progress := true
	for progress {
		progress = false
		for i := 0; i < len(p.pending); i++ {
			m := p.pending[i]
			if p.obsolete(m) {
				p.pending = append(p.pending[:i], p.pending[i+1:]...)
				i--
				continue
			}
			if p.deliverable(m) {
				p.vector[m.From] = m.Vector[m.From]
				p.delivered++
				p.pending = append(p.pending[:i], p.pending[i+1:]...)
				if p.deliver != nil {
					p.deliver(m)
				}
				progress = true
				break // restart: delivery may unblock earlier entries
			}
		}
	}
}
