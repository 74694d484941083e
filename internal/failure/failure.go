// Package failure provides the fault models the paper's reliability
// analysis assumes (§3.2): crash-stop contents peers and — because the
// parity scheme explicitly targets packets "lost with (H−h) channels in a
// bursty manner" — a Gilbert–Elliott two-state bursty loss channel usable
// as simnet's BurstLoss hook.
package failure

import (
	"fmt"
	"math/rand"

	"p2pmss/internal/des"
	"p2pmss/internal/simnet"
)

// GilbertElliott is the classic two-state Markov loss model: a Good state
// with low loss and a Bad (burst) state with high loss. Transition
// probabilities are evaluated per message.
type GilbertElliott struct {
	// PGoodToBad and PBadToGood are the per-message transition
	// probabilities.
	PGoodToBad, PBadToGood float64
	// LossGood and LossBad are the per-message loss probabilities in
	// each state.
	LossGood, LossBad float64

	rng *rand.Rand
	bad bool

	// Counters for inspection.
	Messages, Dropped, BadVisits int64
}

// NewGilbertElliott builds the model with its own deterministic source.
func NewGilbertElliott(pGB, pBG, lossGood, lossBad float64, seed int64) *GilbertElliott {
	for _, p := range []float64{pGB, pBG, lossGood, lossBad} {
		if p < 0 || p > 1 {
			panic(fmt.Sprintf("failure: probability %v outside [0,1]", p))
		}
	}
	return &GilbertElliott{
		PGoodToBad: pGB, PBadToGood: pBG,
		LossGood: lossGood, LossBad: lossBad,
		rng: des.NewRand(seed),
	}
}

// Step advances the state machine one message and reports whether that
// message is lost.
func (g *GilbertElliott) Step() bool {
	g.Messages++
	if g.bad {
		if g.rng.Float64() < g.PBadToGood {
			g.bad = false
		}
	} else if g.rng.Float64() < g.PGoodToBad {
		g.bad = true
		g.BadVisits++
	}
	p := g.LossGood
	if g.bad {
		p = g.LossBad
	}
	if g.rng.Float64() < p {
		g.Dropped++
		return true
	}
	return false
}

// LossRate returns the observed loss fraction so far.
func (g *GilbertElliott) LossRate() float64 {
	if g.Messages == 0 {
		return 0
	}
	return float64(g.Dropped) / float64(g.Messages)
}

// ChannelSet gives each directed (from, to) pair its own Gilbert–Elliott
// channel, for use as a simnet BurstLoss hook: bursts on one channel do
// not correlate with others, matching §3.2's "packets are lost with
// (H−h) channels in a bursty manner".
type ChannelSet struct {
	pGB, pBG, lossGood, lossBad float64
	seed                        int64
	chans                       map[[2]simnet.NodeID]*GilbertElliott
}

// NewChannelSet builds a per-channel burst-loss set.
func NewChannelSet(pGB, pBG, lossGood, lossBad float64, seed int64) *ChannelSet {
	return &ChannelSet{
		pGB: pGB, pBG: pBG, lossGood: lossGood, lossBad: lossBad,
		seed:  seed,
		chans: make(map[[2]simnet.NodeID]*GilbertElliott),
	}
}

// Hook is the simnet.Network.BurstLoss callback.
func (cs *ChannelSet) Hook(from, to simnet.NodeID) bool {
	key := [2]simnet.NodeID{from, to}
	g, ok := cs.chans[key]
	if !ok {
		g = NewGilbertElliott(cs.pGB, cs.pBG, cs.lossGood, cs.lossBad,
			cs.seed+int64(from)*100003+int64(to))
		cs.chans[key] = g
	}
	return g.Step()
}

// Channel returns the model for a directed pair (creating it if needed).
func (cs *ChannelSet) Channel(from, to simnet.NodeID) *GilbertElliott {
	cs.Hook(from, to) // ensure it exists; one extra step is negligible
	return cs.chans[[2]simnet.NodeID{from, to}]
}

// CrashPlan schedules crash-stop failures over time: peer i crashes at
// Times[i] (entries may repeat peers harmlessly).
type CrashPlan struct {
	// Peers[i] crashes at Times[i].
	Peers []simnet.NodeID
	Times []float64
}

// Validate checks the plan's shape.
func (p CrashPlan) Validate() error {
	if len(p.Peers) != len(p.Times) {
		return fmt.Errorf("failure: %d peers but %d times", len(p.Peers), len(p.Times))
	}
	for i, t := range p.Times {
		if t < 0 {
			return fmt.Errorf("failure: negative crash time %v for peer %v", t, p.Peers[i])
		}
	}
	return nil
}

// Install schedules the crashes on the network's engine.
func (p CrashPlan) Install(nw *simnet.Network) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for i, id := range p.Peers {
		id := id
		nw.Engine().At(p.Times[i], func() { nw.Crash(id) })
	}
	return nil
}

// ChurnEvent is one membership change in a churn schedule: peer Peer
// crashes (Join=false) or recovers/joins (Join=true) at time At.
type ChurnEvent struct {
	At   float64
	Peer simnet.NodeID
	Join bool
}

// ChurnSchedule is a deterministic sequence of crash and join events —
// the sim-side counterpart of the live layer's churn injection, so the
// coordination protocols can be measured under the same membership
// dynamics the live tests exercise.
type ChurnSchedule struct {
	Events []ChurnEvent
}

// Validate checks the schedule's shape.
func (s ChurnSchedule) Validate() error {
	for i, e := range s.Events {
		if e.At < 0 {
			return fmt.Errorf("failure: negative churn time %v at event %d", e.At, i)
		}
	}
	return nil
}

// Install schedules the events on the network's engine: crashes call
// nw.Crash, joins call nw.Recover. The optional observe callback fires
// as each event executes (for tracing).
func (s ChurnSchedule) Install(nw *simnet.Network, observe func(ChurnEvent)) error {
	if err := s.Validate(); err != nil {
		return err
	}
	for _, e := range s.Events {
		e := e
		nw.Engine().At(e.At, func() {
			if e.Join {
				nw.Recover(e.Peer)
			} else {
				nw.Crash(e.Peer)
			}
			if observe != nil {
				observe(e)
			}
		})
	}
	return nil
}

// PeriodicChurn builds a schedule that crashes peers [first, first+count)
// one every period starting at start, each rejoining downAfter later
// (downAfter <= 0 means crashed peers stay down).
func PeriodicChurn(first simnet.NodeID, count int, start, period, downAfter float64) ChurnSchedule {
	var s ChurnSchedule
	for i := 0; i < count; i++ {
		at := start + float64(i)*period
		id := first + simnet.NodeID(i)
		s.Events = append(s.Events, ChurnEvent{At: at, Peer: id})
		if downAfter > 0 {
			s.Events = append(s.Events, ChurnEvent{At: at + downAfter, Peer: id, Join: true})
		}
	}
	return s
}
