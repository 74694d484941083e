package gossip

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"p2pmss/internal/des"
)

// This file is the wall-clock driver: periodic push rounds over real
// send callbacks, with a dynamic candidate view instead of the DES
// driver's fixed 0..N-1 population. It carries
// state dissemination for long-lived swarms — each round the node
// pushes its current payload to Fanout targets — rather than the DES
// driver's one-shot rumor.

// LiveConfig parameterizes a wall-clock gossip loop.
type LiveConfig struct {
	// Self is this node's address; it is never selected as a target.
	Self string
	// Peers returns the current candidate targets (a dynamic membership
	// view; including Self is harmless). Called once per round.
	Peers func() []string
	// Payload returns the state to push this round; nil skips the round
	// (nothing to disseminate yet).
	Payload func() []byte
	// Send delivers one push. It runs on the round goroutine; slow or
	// blocking sends stretch the round.
	Send func(to string, payload []byte)
	// Fanout is how many targets each round pushes to (default 3).
	Fanout int
	// Interval is the round period (default 500 ms).
	Interval time.Duration
	// Directional applies the [7]-style preference to the live loop:
	// targets already pushed to are excluded until the candidate view is
	// exhausted, then the exclusion set resets — a stateful sweep instead
	// of independent random rounds.
	Directional bool
	// Seed makes target selection deterministic; 0 uses the clock.
	// Populations derive per-node seeds (e.g. by hashing Self into a
	// shared base seed) so every node walks its own reproducible stream.
	Seed int64
}

// Live is a running wall-clock gossip loop.
type Live struct {
	cfg LiveConfig
	rng *rand.Rand

	pushed map[string]bool // targets already pushed to (directional)

	poke    chan struct{}
	stopCh  chan struct{}
	stopped sync.Once
	done    chan struct{}
}

// StartLive begins the periodic push loop.
func StartLive(cfg LiveConfig) (*Live, error) {
	if cfg.Self == "" || cfg.Peers == nil || cfg.Payload == nil || cfg.Send == nil {
		return nil, fmt.Errorf("gossip: live loop needs Self, Peers, Payload and Send")
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 3
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	l := &Live{
		cfg:    cfg,
		rng:    des.NewRand(seed),
		pushed: make(map[string]bool),
		poke:   make(chan struct{}, 1),
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
	go l.loop()
	return l, nil
}

// Poke triggers an immediate extra round (e.g. after a local state
// change worth disseminating before the next tick).
func (l *Live) Poke() {
	select {
	case l.poke <- struct{}{}:
	default:
	}
}

// Close stops the loop and waits for the round goroutine to exit.
func (l *Live) Close() error {
	l.stopped.Do(func() { close(l.stopCh) })
	<-l.done
	return nil
}

func (l *Live) loop() {
	defer close(l.done)
	tick := time.NewTicker(l.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-l.stopCh:
			return
		case <-tick.C:
		case <-l.poke:
		}
		l.round()
	}
}

// round pushes the current payload to Fanout selected targets.
func (l *Live) round() {
	all := l.cfg.Peers()
	cands := make([]string, 0, len(all))
	for _, a := range all {
		if a == l.cfg.Self {
			continue
		}
		if l.cfg.Directional && l.pushed[a] {
			continue
		}
		cands = append(cands, a)
	}
	if l.cfg.Directional && len(cands) == 0 {
		// The sweep exhausted the view: reset and start a new pass.
		clear(l.pushed)
		for _, a := range all {
			if a != l.cfg.Self {
				cands = append(cands, a)
			}
		}
	}
	targets := pickFanout(l.rng, cands, l.cfg.Fanout)
	if len(targets) == 0 {
		return
	}
	payload := l.cfg.Payload()
	if payload == nil {
		return
	}
	for _, t := range targets {
		l.pushed[t] = true
		l.cfg.Send(t, payload)
	}
}
