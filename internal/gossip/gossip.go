// Package gossip implements the probabilistic dissemination substrate the
// paper's flooding protocols build on (references [6] Kermarrec/Massoulié/
// Ganesh, "Probabilistic Reliable Dissemination in Large-Scale Systems",
// and [7] Lin/Marzullo, "Directional Gossip"). The round logic — who an
// infected node pushes to, when it re-pushes, what it learns from a push —
// lives in the transport-agnostic Engine; drivers supply delivery and a
// clock. Two drivers ship with the package: Run executes a dissemination
// over the discrete-event simulator (fanout/coverage studies, why DCoP
// needs H ≳ log n), and Live runs periodic wall-clock rounds over real
// send callbacks (the decentralized directory in internal/disco gossips
// catalog announcements through it).
package gossip

import (
	"fmt"
	"math/rand"
)

// Config parameterizes a gossip dissemination.
type Config struct {
	// N is the number of nodes.
	N int
	// Fanout is how many targets an infected node pushes to.
	Fanout int
	// Rounds bounds how many rounds each node forwards for; 0 means a
	// node forwards only once upon first infection (the paper's
	// flooding style).
	Rounds int
	// Latency is the per-hop delay.
	Latency float64
	// LossProb drops each push independently.
	LossProb float64
	// Directional enables the [7]-style weighting: nodes prefer targets
	// they have not heard from (approximated by excluding known-infected
	// nodes from selection, like DCoP's view exclusion).
	Directional bool
	// Seed seeds the run.
	Seed int64
}

// Result reports a dissemination outcome.
type Result struct {
	// Infected is how many nodes received the rumor.
	Infected int
	// Rounds is the highest hop count at which a node was first
	// infected.
	Rounds int
	// Messages is the number of pushes sent.
	Messages int64
	// Time is the virtual time of the last first-infection.
	Time float64
}

// Push is one rumor push on the wire: the sender's hop count plus the
// infected nodes it knows about (consumed in directional mode).
type Push struct {
	Hop   int
	Known []int // infected nodes the sender knows (directional mode)
}

type node struct {
	id       int
	infected bool
	hop      int
	known    map[int]bool
	forwards int
}

// Engine is the transport-agnostic push-gossip round engine: it decides
// who an infected node pushes to and what each delivery teaches the
// receiver, while the driver owns delivery (network, loss, latency) and
// the clock. Engine is not safe for concurrent use; drivers serialize
// Deliver/Start calls (the DES is single-threaded, Live runs one round
// goroutine).
type Engine struct {
	cfg   Config
	rng   *rand.Rand
	nodes []*node
	send  func(from, to int, p Push)
	now   func() float64
	res   Result
}

// NewEngine builds an engine over cfg.N nodes. send delivers one push
// (required); now stamps first-infection times (nil keeps Time at 0).
// The rng drives target selection — drivers that need reproducible
// results pass a seeded source and serialize deliveries.
func NewEngine(cfg Config, rng *rand.Rand, send func(from, to int, p Push), now func() float64) (*Engine, error) {
	if cfg.N <= 0 || cfg.Fanout <= 0 {
		return nil, fmt.Errorf("gossip: N=%d and Fanout=%d must be positive", cfg.N, cfg.Fanout)
	}
	if send == nil {
		return nil, fmt.Errorf("gossip: engine needs a send function")
	}
	if now == nil {
		now = func() float64 { return 0 }
	}
	e := &Engine{cfg: cfg, rng: rng, send: send, now: now}
	e.nodes = make([]*node, cfg.N)
	for i := range e.nodes {
		e.nodes[i] = &node{id: i, known: make(map[int]bool)}
	}
	return e, nil
}

// Start infects the origin node at hop 0, triggering its first pushes.
func (e *Engine) Start(origin int) {
	e.infect(e.nodes[origin], 0, nil)
}

// Deliver hands one push to its destination node, as the driver's
// network delivers it.
func (e *Engine) Deliver(to int, p Push) {
	e.infect(e.nodes[to], p.Hop, p.Known)
}

// Result reports the dissemination outcome so far.
func (e *Engine) Result() Result { return e.res }

func (e *Engine) forward(n *node) {
	targets := selectTargets(e.rng, e.cfg, n)
	if len(targets) == 0 {
		return
	}
	knownList := knownOf(n)
	for _, t := range targets {
		n.known[t] = true
		e.res.Messages++
		e.send(n.id, t, Push{Hop: n.hop + 1, Known: knownList})
	}
}

func (e *Engine) infect(n *node, hop int, known []int) {
	for _, k := range known {
		n.known[k] = true
	}
	if n.infected {
		// Re-pushes in multi-round mode.
		if e.cfg.Rounds > 0 && n.forwards < e.cfg.Rounds {
			n.forwards++
			e.forward(n)
		}
		return
	}
	n.infected = true
	n.hop = hop
	n.known[n.id] = true
	e.res.Infected++
	if hop > e.res.Rounds {
		e.res.Rounds = hop
	}
	e.res.Time = e.now()
	n.forwards++
	e.forward(n)
}

func knownOf(n *node) []int {
	out := make([]int, 0, len(n.known))
	for k := range n.known {
		out = append(out, k)
	}
	return out
}

// selectTargets picks Fanout random targets; in directional mode,
// known-infected nodes are excluded (like DCoP's Select over CP − VW).
func selectTargets(rng *rand.Rand, cfg Config, n *node) []int {
	var cands []int
	for i := 0; i < cfg.N; i++ {
		if i == n.id {
			continue
		}
		if cfg.Directional && n.known[i] {
			continue
		}
		cands = append(cands, i)
	}
	return pickFanout(rng, cands, cfg.Fanout)
}

// pickFanout shuffles the candidates and truncates to the fanout — the
// one place the engine consumes randomness, shared by both drivers so a
// seed means the same selection everywhere.
func pickFanout[T any](rng *rand.Rand, cands []T, fanout int) []T {
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) > fanout {
		cands = cands[:fanout]
	}
	return cands
}
