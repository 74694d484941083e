package coord

import (
	"fmt"

	"p2pmss/internal/des"
	"p2pmss/internal/flight"
	"p2pmss/internal/metrics"
	"p2pmss/internal/overlay"
	"p2pmss/internal/transport"
)

// NetStats aggregates the simulated network's delivery counters.
type NetStats struct {
	Sent      int64 // messages handed to the network by a live sender
	Delivered int64 // messages delivered to a peer or the leaf
	Dropped   int64 // lost to LossProb or a burst
	ToCrashed int64 // discarded because the destination had crashed
}

// network is the simulator's link model: nodes 0..N-1 are the contents
// peers and node N the leaf. Every directed link has the one-way latency
// Delta plus a uniform draw in [0, Jitter) on the engine's stream, and
// takes its loss verdicts from a transport.Link of its own: probability
// LossProb and, with Config.Burst, Gilbert–Elliott bursts (§3.2's "lost
// … in a bursty manner"). A crash-stopped node neither sends nor
// receives; a message already in flight to it is discarded on arrival,
// unseen by its sender.
type network struct {
	eng   *des.Engine
	cfg   *Config
	links map[[2]int]*transport.Link // with LossProb > 0 or Config.Burst
	// slab is where the next links go: they are held by value, a block
	// of linkBlock at a time, so a lossy run allocates per block, not per
	// link, and a link's address stays put.
	slab    []transport.Link
	crashed []bool // indexed by node
	free    des.FreeList[delivery]
	stats   NetStats
	met     netMetrics
	receive func(from, to int, m any)
}

// linkBlock is how many links one slab allocation holds.
const linkBlock = 256

// delivery is one in-flight message: a pooled record that is itself the
// des event, so a send schedules it without allocating.
type delivery struct {
	n        *network
	from, to int
	m        any
}

// netMetrics holds the network's instrument handles. The zero value (all
// nil) is fully functional and free: every method no-ops.
type netMetrics struct {
	sent, delivered, dropped, toCrashed *metrics.Counter
	inflight                            *metrics.Gauge
	latency                             *metrics.Histogram
}

// newNetwork builds cfg's network of cfg.N+1 nodes on eng, handing every
// delivery to receive. It registers the simnet_* series on
// cfg.Obs.Metrics, if any (messages sent / delivered / dropped /
// to-crashed, in-flight depth, delivery latency); they never influence
// the run.
func newNetwork(eng *des.Engine, cfg *Config, receive func(from, to int, m any)) *network {
	n := &network{eng: eng, cfg: cfg, crashed: make([]bool, cfg.N+1), receive: receive}
	if cfg.LossProb > 0 || cfg.Burst != nil {
		n.links = make(map[[2]int]*transport.Link)
	}
	if reg := cfg.Obs.Metrics; reg != nil {
		n.met = netMetrics{
			sent:      reg.Counter("simnet_messages_sent_total"),
			delivered: reg.Counter("simnet_messages_delivered_total"),
			dropped:   reg.Counter("simnet_messages_dropped_total"),
			toCrashed: reg.Counter("simnet_messages_to_crashed_total"),
			inflight:  reg.Gauge("simnet_inflight_messages"),
			latency:   reg.Histogram("simnet_delivery_latency", []float64{0.5, 1, 1.5, 2, 3, 5, 10}),
		}
	}
	return n
}

// send transmits m from → to: the link's loss verdict first, on the
// link's own stream, then jitter (only with Jitter > 0) on the engine's.
// A lossless run draws no verdict.
func (n *network) send(from, to int, m any) {
	if n.crashed[from] {
		return
	}
	n.stats.Sent++
	n.met.sent.Inc()
	if n.links != nil && n.link(from, to).Lost() {
		n.stats.Dropped++
		n.met.dropped.Inc()
		return
	}
	d := n.cfg.Delta
	if j := n.cfg.Jitter; j > 0 {
		d += n.eng.Rand().Float64() * j
	}
	n.met.latency.Observe(d)
	n.met.inflight.Add(1)
	dl := n.free.Take()
	dl.n, dl.from, dl.to, dl.m = n, from, to, m
	n.eng.Schedule(n.eng.Now()+d, dl)
}

// Fire delivers the message to its destination. The record goes back to
// the pool first, so the receiver's own sends can reuse it.
func (dl *delivery) Fire() {
	n, from, to, m := dl.n, dl.from, dl.to, dl.m
	dl.m = nil
	n.free.Put(dl)
	n.met.inflight.Add(-1)
	if n.crashed[to] {
		n.stats.ToCrashed++
		n.met.toCrashed.Inc()
		return
	}
	n.stats.Delivered++
	n.met.delivered.Inc()
	n.receive(from, to, m)
}

// link returns the directed link from → to, created on first use on its
// own stream, seeded Seed+7919+from·100003+to.
func (n *network) link(from, to int) *transport.Link {
	key := [2]int{from, to}
	l := n.links[key]
	if l == nil {
		if len(n.slab) == 0 {
			n.slab = make([]transport.Link, linkBlock)
		}
		l = &n.slab[0]
		n.slab = n.slab[1:]
		*l = transport.NewLink(n.cfg.Seed+7919+int64(from)*100003+int64(to), n.cfg.LossProb, n.cfg.Burst)
		n.links[key] = l
	}
	return l
}

// ChurnEvent is one membership change in a churn schedule: peer Peer
// crashes (Join=false) or rejoins (Join=true) at time At.
type ChurnEvent struct {
	At   float64
	Peer overlay.PeerID
	Join bool
}

// ChurnSchedule is a deterministic sequence of crash and rejoin events,
// the sim-side counterpart of the live layer's churn injection.
type ChurnSchedule struct {
	Events []ChurnEvent
}

// validate checks every event against an overlay of n contents peers.
func (s *ChurnSchedule) validate(n int) error {
	for i, e := range s.Events {
		if !(e.At >= 0) {
			return fmt.Errorf("coord: churn event %d at time %v must not be negative", i, e.At)
		}
		if e.Peer < 0 || int(e.Peer) >= n {
			return fmt.Errorf("coord: churn event %d names peer %d outside [0, %d)", i, e.Peer, n)
		}
	}
	return nil
}

// setDown crash-stops (down) or rejoins contents peer id now: the network
// drops what it sends and what reaches it, the fluid ledger stops or
// resumes counting its flow (its slot grid keeps ticking), and its flight
// track notes the change. CrashAt crashes and Churn events both come here.
func (r *runner) setDown(id overlay.PeerID, down bool) {
	r.nw.crashed[id] = down
	now := r.eng.Now()
	what := "crash"
	if down {
		if r.fl != nil {
			r.fl.Mask(int(id), now)
		}
	} else {
		what = "rejoin"
		if r.fl != nil {
			r.fl.Unmask(int(id), now)
		}
	}
	r.note(int(id), flight.Event{Dir: flight.DirDriver, Type: what})
}
