// Package simnet models the P2P overlay's underlying network on top of
// the discrete-event engine: logical channels with propagation latency,
// jitter, loss probability and bandwidth, plus crash-stop node failures.
//
// The paper assumes "reliable high-speed communication like 10 Gbps
// Ethernet" between contents peers and the leaf (§4) for the coordination
// experiments, and separately studies packet loss and peer faults for the
// data plane (§3.2); both regimes are expressible with LinkParams.
package simnet

import (
	"fmt"

	"p2pmss/internal/des"
	"p2pmss/internal/metrics"
)

// NodeID identifies a node in the simulated overlay. By convention the
// experiment layer uses 0..n-1 for contents peers and LeafID for the leaf.
type NodeID int

// Message is anything a node sends to another.
type Message any

// Handler receives messages delivered to a node.
type Handler interface {
	Receive(from NodeID, m Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from NodeID, m Message)

// Receive calls f(from, m).
func (f HandlerFunc) Receive(from NodeID, m Message) { f(from, m) }

// LinkParams describes one direction of a logical channel.
type LinkParams struct {
	// Latency is the fixed propagation delay (the paper's δ).
	Latency float64
	// Jitter adds a uniform random extra delay in [0, Jitter).
	Jitter float64
	// LossProb is the probability a message is silently dropped.
	LossProb float64
	// Bandwidth, when positive, limits the link to that many messages
	// per time unit: messages serialize FIFO, each occupying the link
	// for 1/Bandwidth (the §2 slot model at the network layer). Zero
	// means unlimited.
	Bandwidth float64
}

// Stats aggregates network-wide delivery counters.
type Stats struct {
	Sent      int64 // messages handed to Send
	Delivered int64 // messages delivered to a handler
	Dropped   int64 // lost to LossProb
	ToCrashed int64 // discarded because the destination had crashed
}

// Network simulates message exchange between nodes.
type Network struct {
	eng *des.Engine
	// nodes and crashed are indexed by the dense NodeID.
	nodes   []Handler
	crashed []bool
	def     LinkParams
	// links holds SetLink overrides; nil until the first one.
	links map[[2]NodeID]LinkParams
	// busyUntil tracks per-directed-link FIFO serialization when the
	// link has finite bandwidth.
	busyUntil map[[2]NodeID]float64
	// free holds delivery records whose message has been handed over.
	free  []*delivery
	stats Stats
	// BurstLoss, when non-nil, is consulted per message in addition to
	// LossProb; it enables correlated (bursty) loss models from the
	// failure package.
	BurstLoss func(from, to NodeID) bool
	met       netMetrics
}

// delivery is one in-flight message: a pooled record whose callback is
// bound once, so a send schedules it without allocating.
type delivery struct {
	n        *Network
	from, to NodeID
	m        Message
	fire     func()
}

// netMetrics holds the network's instrument handles. The zero value
// (all nil) is fully functional and free: every method no-ops.
type netMetrics struct {
	sent, delivered, dropped, toCrashed *metrics.Counter
	inflight                            *metrics.Gauge
	latency                             *metrics.Histogram
}

// Instrument registers the network's counters on reg (messages sent /
// delivered / dropped / to-crashed, in-flight queue depth, delivery
// latency). A nil registry leaves the network uninstrumented; metrics
// never influence simulation behavior, so instrumented and bare runs
// are event-for-event identical.
func (n *Network) Instrument(reg *metrics.Registry) {
	n.met = netMetrics{
		sent:      reg.Counter("simnet_messages_sent_total"),
		delivered: reg.Counter("simnet_messages_delivered_total"),
		dropped:   reg.Counter("simnet_messages_dropped_total"),
		toCrashed: reg.Counter("simnet_messages_to_crashed_total"),
		inflight:  reg.Gauge("simnet_inflight_messages"),
		latency:   reg.Histogram("simnet_delivery_latency", []float64{0.5, 1, 1.5, 2, 3, 5, 10}),
	}
}

// New returns a network over the given engine with zero-latency,
// loss-free default links.
func New(eng *des.Engine) *Network {
	return &Network{eng: eng}
}

// Engine returns the underlying discrete-event engine.
func (n *Network) Engine() *des.Engine { return n.eng }

// Attach registers the handler for a node ID, replacing any previous one.
// IDs index a slice: keep them dense and non-negative.
func (n *Network) Attach(id NodeID, h Handler) {
	n.nodes = grow(n.nodes, id)
	n.nodes[id] = h
}

// grow extends s so that id indexes it.
func grow[T any](s []T, id NodeID) []T {
	if id < 0 {
		panic(fmt.Sprintf("simnet: negative node ID %d", id))
	}
	if int(id) >= len(s) {
		s = append(s, make([]T, int(id)+1-len(s))...)
	}
	return s
}

// AttachFunc registers a function handler for a node ID.
func (n *Network) AttachFunc(id NodeID, f func(from NodeID, m Message)) {
	n.Attach(id, HandlerFunc(f))
}

// SetDefaultLink sets the parameters used for node pairs without an
// explicit link override.
func (n *Network) SetDefaultLink(p LinkParams) { n.def = p }

// SetLink overrides the parameters of the directed link from → to.
func (n *Network) SetLink(from, to NodeID, p LinkParams) {
	if n.links == nil {
		n.links = make(map[[2]NodeID]LinkParams)
	}
	n.links[[2]NodeID{from, to}] = p
}

// Link returns the effective parameters of the directed link from → to.
func (n *Network) Link(from, to NodeID) LinkParams {
	if len(n.links) > 0 {
		if p, ok := n.links[[2]NodeID{from, to}]; ok {
			return p
		}
	}
	return n.def
}

// Crash marks a node as crash-stopped: it no longer sends or receives.
func (n *Network) Crash(id NodeID) {
	n.crashed = grow(n.crashed, id)
	n.crashed[id] = true
}

// Recover clears a node's crashed state.
func (n *Network) Recover(id NodeID) {
	if n.Crashed(id) {
		n.crashed[id] = false
	}
}

// Crashed reports whether a node is crash-stopped.
func (n *Network) Crashed(id NodeID) bool {
	return uint(id) < uint(len(n.crashed)) && n.crashed[id]
}

// Stats returns a snapshot of the delivery counters.
func (n *Network) Stats() Stats { return n.stats }

// Send transmits m from → to over the simulated link. Sends from crashed
// nodes are ignored; messages to crashed or unknown nodes are discarded at
// delivery time (matching a real network, where the sender cannot tell).
func (n *Network) Send(from, to NodeID, m Message) {
	if n.Crashed(from) {
		return
	}
	n.stats.Sent++
	n.met.sent.Inc()
	p := n.Link(from, to)
	if p.LossProb > 0 && n.eng.Rand().Float64() < p.LossProb {
		n.stats.Dropped++
		n.met.dropped.Inc()
		return
	}
	if n.BurstLoss != nil && n.BurstLoss(from, to) {
		n.stats.Dropped++
		n.met.dropped.Inc()
		return
	}
	d := p.Latency
	if p.Jitter > 0 {
		d += n.eng.Rand().Float64() * p.Jitter
	}
	if p.Bandwidth > 0 {
		// FIFO serialization: the message occupies the link for
		// 1/Bandwidth starting when the link frees up.
		if n.busyUntil == nil {
			n.busyUntil = make(map[[2]NodeID]float64)
		}
		key := [2]NodeID{from, to}
		start := n.eng.Now()
		if busy := n.busyUntil[key]; busy > start {
			start = busy
		}
		done := start + 1/p.Bandwidth
		n.busyUntil[key] = done
		d += done - n.eng.Now()
	}
	n.met.latency.Observe(d)
	n.met.inflight.Add(1)
	var dl *delivery
	if k := len(n.free) - 1; k >= 0 {
		dl = n.free[k]
		n.free = n.free[:k]
	} else {
		dl = &delivery{n: n}
		dl.fire = dl.deliver
	}
	dl.from, dl.to, dl.m = from, to, m
	n.eng.After(d, dl.fire)
}

// deliver hands the message to its destination. The record goes back
// to the pool first, so the handler's own sends can reuse it.
func (dl *delivery) deliver() {
	n, from, to, m := dl.n, dl.from, dl.to, dl.m
	dl.m = nil
	n.free = append(n.free, dl)
	n.met.inflight.Add(-1)
	if n.Crashed(to) {
		n.stats.ToCrashed++
		n.met.toCrashed.Inc()
		return
	}
	var h Handler
	if uint(to) < uint(len(n.nodes)) {
		h = n.nodes[to]
	}
	if h == nil {
		panic(fmt.Sprintf("simnet: message %T delivered to unattached node %d", m, to))
	}
	n.stats.Delivered++
	n.met.delivered.Inc()
	h.Receive(from, m)
}

// Broadcast sends m from the given node to every other attached node,
// in ascending NodeID order, so the jitter and loss draws follow a
// fixed order.
func (n *Network) Broadcast(from NodeID, m Message) {
	for id, h := range n.nodes {
		if h != nil && NodeID(id) != from {
			n.Send(from, NodeID(id), m)
		}
	}
}
