package main

import (
	"math/rand"
	"strconv"
	"sync"
	"time"

	"p2pmss/internal/content"
	"p2pmss/internal/des"
	"p2pmss/internal/engine"
	"p2pmss/internal/parity"
	"p2pmss/internal/schedule"
	"p2pmss/internal/seq"
	"p2pmss/internal/transport"
)

// Direct probes call one layer's public functions on the workload's own
// inputs and report the mean cost of a call. They run after the timed
// window, so they cost the end-to-end numbers nothing.

// probe times calls of fn and returns their mean cost in ns.
type probe struct{ scale float64 } // -scale shrinks the iteration counts

func (pr probe) perCall(n int, fn func()) float64 {
	n = max(1, int(float64(n)*pr.scale))
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// ---- engine (sim_coord) ----------------------------------------------------

func probeEngine(pr probe, base int64, out map[string]float64) {
	cfg := engine.Config{N: 100, H: 10, Interval: 9, MarkDelta: 0.1, HandshakeTimeout: 1, CommitRelease: 4, Retries: 10}
	id := 0
	out["engine.new_peer_us"] = pr.perCall(2000, func() {
		pid := engine.PeerID(id % cfg.N)
		sink = engine.NewPeer(cfg, pid, rand.New(rand.NewSource(engine.PeerSeed(base, pid))))
		id++
	}) / 1e3
	for _, dcop := range []bool{false, true} {
		c := cfg
		c.DCoP = dcop
		name := "engine.round_us.tcop"
		if dcop {
			name = "engine.round_us.dcop"
		}
		round := int64(0)
		out[name] = pr.perCall(200, func() {
			round++
			runRound(c, base+round)
		}) / 1e3
	}
}

// runRound builds n peers and drives one whole coordination round
// through Peer.Handle in control-plane-only mode (rates, no packet
// divisions): unit-latency FIFO messages, timers fired earliest-first
// once the queue drains. It is the least a driver must do, so what it
// times is the engine: peer construction, RNG seeding and Handle.
func runRound(cfg engine.Config, seed int64) {
	type delivery struct {
		to  engine.PeerID
		msg any
		ev  engine.Event
	}
	type timer struct {
		at float64
		to engine.PeerID
		id engine.TimerID
	}
	if err := cfg.Normalize(); err != nil {
		panic(err)
	}
	peers := make([]*engine.Peer, cfg.N)
	rates := make([]float64, cfg.N)
	for i := range peers {
		pid := engine.PeerID(i)
		peers[i] = engine.NewPeer(cfg, pid, rand.New(rand.NewSource(engine.PeerSeed(seed, pid))))
	}
	var queue []delivery
	var timers []timer
	now := 0.0

	leaf := rand.New(rand.NewSource(engine.PeerSeed(seed, engine.LeafID)))
	sel, _ := engine.SelectInitial(leaf, cfg.N, cfg.H)
	perPeer := parity.PerPeerRate(25, cfg.Interval, cfg.H)
	for _, cp := range sel {
		queue = append(queue, delivery{to: cp, ev: &engine.Request{Rate: perPeer, Selected: sel, Round: 1}})
	}

	handle := func(to engine.PeerID, ev engine.Event) {
		p := peers[to]
		effs := p.Handle(ev, engine.Snapshot{Rate: rates[to]})
		for _, eff := range effs {
			switch e := eff.(type) {
			case *engine.Send:
				queue = append(queue, delivery{to: e.To, msg: e.Msg})
			case *engine.SetTimer:
				timers = append(timers, timer{at: now + e.Delay, to: to, id: e.ID})
			case *engine.Activate:
				rates[to] = e.Rate
			case *engine.Merge:
				rates[to] += e.Rate
			case *engine.Handoff:
				rates[to] += e.NewRate - e.OldRate
			case *engine.Absorb:
				rates[to] += e.RateDelta
			}
		}
		p.Release(effs)
	}
	for {
		for head := 0; head < len(queue); head++ {
			d := queue[head]
			ev := d.ev
			switch m := d.msg.(type) {
			case *engine.MsgControl:
				ev = &engine.Control{Msg: m}
			case *engine.MsgConfirm:
				ev = &engine.Confirm{Msg: m}
			case *engine.MsgCommit:
				ev = &engine.Commit{Msg: m}
			}
			handle(d.to, ev)
			engine.ReleaseMsg(d.msg)
		}
		queue = queue[:0]
		if len(timers) == 0 {
			return
		}
		best := 0
		for i, t := range timers {
			if t.at < timers[best].at {
				best = i
			}
		}
		t := timers[best]
		timers = append(timers[:best], timers[best+1:]...)
		now = t.at
		handle(t.to, &engine.TimerFired{Timer: t.id})
	}
}

// ---- des / seq / parity / schedule on the Figure-12 sequence (sim_packet) ---

func probeFig12(pr probe, base int64, out map[string]float64) {
	const contentLen, h, fanout = 30000, 9, 10
	content := seq.Range(1, contentLen)
	out["parity.enhance_us"] = pr.perCall(5, func() { sink = parity.Enhance(content, h) }) / 1e3
	enhanced := parity.Enhance(content, h)
	out["seq.divide_us"] = pr.perCall(20, func() { sink = seq.Divide(enhanced, fanout) }) / 1e3
	parts := seq.Divide(enhanced, fanout)
	out["seq.union_us"] = pr.perCall(20, func() { sink = seq.Union(parts[0], parts[1]) }) / 1e3
	channels := schedule.ProportionalChannels(4, 2, 1)
	out["schedule.allocate_us"] = pr.perCall(5, func() { sink = schedule.Allocate(contentLen, channels) }) / 1e3

	events := max(1000, int(200000*pr.scale))
	sim := des.New(base)
	rng := rand.New(rand.NewSource(base))
	fired := 0
	start := time.Now()
	for i := 0; i < events; i++ {
		sim.At(rng.Float64()*1000, func() { fired++ })
	}
	sim.Run()
	out["des.event_ns"] = float64(time.Since(start).Nanoseconds()) / float64(fired)
}

// ---- transport / content / parity on a live workload's inputs ---------------

// wireData mirrors the body of the live runtime's data message.
type wireData struct {
	Pkt seq.Packet `json:"pkt"`
}

func probeLive(pr probe, l *liveWorkload, captured *transport.Msg, out map[string]float64) {
	if captured != nil {
		var body wireData
		out["transport.decode_data_ns"] = pr.perCall(20000, func() { sink = captured.Decode(&body) })
		out["transport.encode_data_ns"] = pr.perCall(20000, func() {
			m, _ := transport.Encode(dataType, captured.From, body)
			sink = m
		})
		nop := func(transport.Msg) {}
		f := transport.NewBoundedQueuedFabric(queueCap, transport.QueueBlock)
		a, b := f.Endpoint("a", nop), f.Endpoint("b", nop)
		out["transport.fabric_send_ns"] = pr.perCall(20000, func() { sink = a.Send("b", *captured) })
		f.Wait()
		a.Close()
		b.Close()
		if ua, err := transport.ListenUDP("127.0.0.1:0", nop); err == nil {
			if ub, err := transport.ListenUDP("127.0.0.1:0", nop); err == nil {
				out["transport.udp_send_us"] = pr.perCall(5000, func() { sink = ua.Send(ub.Name(), *captured) }) / 1e3
				ub.Close()
			}
			ua.Close()
		}
	}

	// Leaf-side work on the first content: feed its enhanced sequence to
	// an assembler, then to a recoverer with one data packet per segment
	// withheld so every segment needs one XOR recovery.
	c := content.New(l.ids[0], l.data[0], l.spec.packetSize)
	enhanced := parity.Enhance(c.Sequence(), liveInterval)
	out["content.assemble_ns_per_pkt"] = pr.perCall(3, func() {
		asm := content.NewAssembler(c.Size(), c.PacketSize())
		for _, p := range enhanced {
			asm.Add(p)
		}
		sink = asm
	}) / float64(len(enhanced))
	segments := (len(c.Sequence()) + liveInterval - 1) / liveInterval
	out["parity.recover_us_per_seg"] = pr.perCall(3, func() {
		r := parity.NewRecoverer()
		for _, p := range enhanced {
			if p.IsData() && (p.Index-1)%liveInterval == 0 {
				continue
			}
			r.Add(p)
		}
		sink = r
	}) / 1e3 / float64(segments)
}

// ---- queue-wait prober -------------------------------------------------------

// prober sends a timestamped message every few milliseconds between two
// endpoints of its own on the workload's transport and records how long
// each waited to be handled: on the queued fabric that is the wait
// behind everything else in the one queue.
type prober struct {
	rec  *recorder
	a, b transport.Endpoint

	mu      sync.Mutex
	waitsUS []float64

	quit, done chan struct{}
}

const probeEvery = 5 * time.Millisecond

func startProber(rec *recorder, fabric *transport.Fabric) (*prober, error) {
	p := &prober{rec: rec, quit: make(chan struct{}), done: make(chan struct{})}
	nop := func(transport.Msg) {}
	if fabric != nil {
		p.a, p.b = fabric.Endpoint("probe-a", nop), fabric.Endpoint("probe-b", p.receive)
	} else {
		a, err := transport.ListenUDP("127.0.0.1:0", nop)
		if err != nil {
			return nil, err
		}
		b, err := transport.ListenUDP("127.0.0.1:0", p.receive)
		if err != nil {
			a.Close()
			return nil, err
		}
		p.a, p.b = a, b
	}
	go p.loop()
	return p, nil
}

func (p *prober) loop() {
	defer close(p.done)
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	for {
		select {
		case <-p.quit:
			return
		case <-tick.C:
		}
		if !p.rec.enabled() {
			continue
		}
		stamp := strconv.AppendInt(nil, p.rec.now(), 10)
		p.a.Send(p.b.Name(), transport.Msg{Type: "probe", From: p.a.Name(), Payload: stamp}) //nolint:errcheck // a lost probe is a missing sample
	}
}

func (p *prober) receive(m transport.Msg) {
	sent, err := strconv.ParseInt(string(m.Payload), 10, 64)
	if err != nil {
		return
	}
	wait := float64(p.rec.now()-sent) / 1e3
	p.mu.Lock()
	p.waitsUS = append(p.waitsUS, wait)
	p.mu.Unlock()
}

func (p *prober) waits() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return sortedCopy(p.waitsUS)
}

func (p *prober) stop() {
	close(p.quit)
	<-p.done
	p.a.Close()
	p.b.Close()
}
