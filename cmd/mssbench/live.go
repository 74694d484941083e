package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"p2pmss"
	"p2pmss/internal/content"
	"p2pmss/internal/live"
	"p2pmss/internal/transport"
)

// liveSpec describes a live workload: one population of nodes per entry
// of protos, all on one transport, streaming seeded contents to leaf
// sessions the generator opens.
type liveSpec struct {
	name        string
	protos      []string
	nodes       int // per population
	udp         bool
	impair      transport.Impairment
	contents    int
	contentSize int
	packetSize  int
	rate        float64 // content rate, packets per second
	// requestRetry re-sends a content request a datagram transport lost.
	requestRetry time.Duration
	// perSecond > 0 makes the loop open: sessions are due on a fixed
	// schedule whatever the system does. Otherwise the loop is closed:
	// inFlight sessions are kept running, each next one started when one
	// completes.
	perSecond float64
	inFlight  int
}

// Shared by all live workloads. reapAfter stays well above repairAfter:
// a serving peer reaped before the leaf's repair round leaves the
// session a few packets short for good (see README, "ReapAfter trap").
const (
	liveH          = 3
	liveInterval   = 2
	repairAfter    = 250 * time.Millisecond
	reapAfter      = 2 * time.Second
	sessionTimeout = 30 * time.Second
	queueCap       = 4096
)

var liveSpecs = map[string]liveSpec{
	"live_sessions": {
		name: "live_sessions", protos: []string{p2pmss.TCoP, p2pmss.DCoP}, nodes: 8,
		contents: 8, contentSize: 64 << 10, packetSize: 256, rate: 2000, perSecond: 20,
	},
	"live_bulk": {
		name: "live_bulk", protos: []string{p2pmss.TCoP}, nodes: 8,
		contents: 4, contentSize: 2 << 20, packetSize: 1024, rate: 32000, inFlight: 2,
	},
	"live_udp_lossy": {
		name: "live_udp_lossy", protos: []string{p2pmss.TCoP}, nodes: 8, udp: true,
		impair:   transport.Impairment{Loss: .05, Reorder: .05, ReorderWindow: 4, MaxHold: 50 * time.Millisecond},
		contents: 4, contentSize: 1 << 20, packetSize: 1024, rate: 4000, inFlight: 2,
		requestRetry: 200 * time.Millisecond,
	},
}

// liveNode is one node of a population with its tracing state (nil when
// the run is untraced: the node then sits on the bare transport).
type liveNode struct {
	node  *live.Node
	trace *nodeTrace
}

type liveWorkload struct {
	spec  liveSpec
	rec   *recorder
	rng   *rand.Rand // everything the generator chooses comes from here
	scale float64

	ids   []string
	data  [][]byte
	pops  [][]*liveNode
	nodes []*liveNode

	fabric    *transport.Fabric
	impairers []*transport.Impairer
	probe     *prober
	next      int // index of the next session

	// Leaf.Stats sums over the sessions completed in the current window.
	leafTotal, leafDup, leafRecovered, sessions int64
}

// lateHandler lets a socket be bound (so its address can go into the
// roster) before the node that will handle its traffic exists.
type lateHandler struct {
	h atomic.Pointer[transport.Handler]
}

func (b *lateHandler) dispatch(m transport.Msg) {
	if h := b.h.Load(); h != nil {
		(*h)(m)
	}
}

func (l *liveWorkload) setUp(seed int64, scale float64, rec *recorder) error {
	sp := l.spec
	*l = liveWorkload{spec: sp, rec: rec, scale: scale, rng: rand.New(rand.NewSource(seed))}
	size := max(8*sp.packetSize, int(float64(sp.contentSize)*scale))
	store := content.NewStore()
	for c := 0; c < sp.contents; c++ {
		data := make([]byte, size)
		l.rng.Read(data)
		id := fmt.Sprintf("content%d", c)
		store.Put(content.New(id, data, sp.packetSize))
		l.ids, l.data = append(l.ids, id), append(l.data, data)
	}

	// Bind every endpoint first: rosters and the trace's name table need
	// all names before any node exists.
	total := len(sp.protos) * sp.nodes
	names := make([]string, total)
	binders := make([]*lateHandler, total)
	socks := make([]*transport.UDPEndpoint, total)
	if sp.udp {
		imp := sp.impair
		imp.Seed = seed
		for i := range names {
			binders[i] = &lateHandler{}
			ep, err := transport.ListenUDP("127.0.0.1:0", binders[i].dispatch)
			if err != nil {
				for _, s := range socks[:i] {
					s.Close()
				}
				return err
			}
			socks[i], names[i] = ep, ep.Name()
			l.impairers = append(l.impairers, ep.SetImpairment(imp))
		}
	} else {
		l.fabric = transport.NewBoundedQueuedFabric(queueCap, transport.QueueBlock)
		for i := range names {
			names[i] = fmt.Sprintf("%s%d", sp.protos[i/sp.nodes], i%sp.nodes)
		}
	}
	index := make(map[string]int32, total)
	for i, n := range names {
		index[n] = int32(i)
	}

	for i := range names {
		pop := i / sp.nodes
		ln := &liveNode{}
		if rec != nil {
			ln.trace = &nodeTrace{rec: rec, node: int32(i), index: index}
		}
		attach := func(h transport.Handler) (transport.Endpoint, error) {
			if ln.trace != nil {
				h = ln.trace.wrapHandler(h)
			}
			var ep transport.Endpoint
			if sp.udp {
				binders[i].h.Store(&h)
				ep = socks[i]
			} else {
				ep = l.fabric.Endpoint(names[i], h)
			}
			if ln.trace != nil {
				ep = &tracedEndpoint{Endpoint: ep, t: ln.trace}
			}
			return ep, nil
		}
		nd, err := live.NewNode(live.NodeConfig{
			Store: store, Roster: names[pop*sp.nodes : (pop+1)*sp.nodes],
			H: liveH, Interval: liveInterval, Protocol: sp.protos[pop],
			ReapAfter: reapAfter, Seed: seed*1000 + int64(i) + 1,
		}, live.WithAttach(attach))
		if err != nil {
			for _, s := range socks[i:] {
				if s != nil {
					s.Close()
				}
			}
			return err
		}
		ln.node = nd
		l.nodes = append(l.nodes, ln)
		if i%sp.nodes == 0 {
			l.pops = append(l.pops, nil)
		}
		l.pops[pop] = append(l.pops[pop], ln)
	}
	if rec != nil {
		p, err := startProber(rec, l.fabric)
		if err != nil {
			return err
		}
		l.probe = p
	}
	return l.warmUp()
}

func (l *liveWorkload) tearDown() {
	if l.probe != nil {
		l.probe.stop()
		l.probe = nil
	}
	for _, ln := range l.nodes {
		ln.node.Close()
	}
	l.nodes, l.pops = nil, nil
}

// session is one planned leaf session: everything about it is drawn
// from the workload's seeded generator before the program sees it.
type session struct {
	idx     int
	id      live.SessionID
	content int
	leaf    *liveNode
	cfg     live.SessionConfig
	due     time.Time // open loop: scheduled start; closed loop: Open call
	spanID  uint64
	ls      *live.LeafSession
}

func (l *liveWorkload) plan(id live.SessionID, idx, pop, contentIdx int) *session {
	return &session{
		idx: idx, id: id, content: contentIdx,
		leaf: l.pops[pop][l.rng.Intn(len(l.pops[pop]))],
		cfg: live.SessionConfig{
			ID: id, ContentID: l.ids[contentIdx], ContentSize: len(l.data[contentIdx]), PacketSize: l.spec.packetSize,
			Rate: l.spec.rate, RepairAfter: repairAfter, RequestRetry: l.spec.requestRetry,
			Seed: l.rng.Int63()>>1 + 1,
		},
	}
}

// outcome is what a finished session reports back to the generator.
type outcome struct {
	s          *session
	end        time.Time
	err        error
	total, dup int64
	recovered  int
}

// open starts a planned session (inside a span when tracing).
func (l *liveWorkload) open(s *session) error {
	traced := l.rec.enabled()
	var id uint64
	var t0 int64
	if traced {
		s.spanID, id, t0 = l.rec.newID(), l.rec.newID(), l.rec.now()
	}
	ls, err := s.leaf.node.Open(s.cfg)
	if traced {
		l.rec.add(span{ID: id, Parent: s.spanID, Name: spanOpen, Op: int32(s.idx), Node: s.leaf.trace.node, Peer: -1, Start: t0, End: l.rec.now()})
	}
	s.ls = ls
	return err
}

// await waits for a session, reads the content back and compares it
// byte for byte with what the generator stored.
func (l *liveWorkload) await(s *session) outcome {
	o := outcome{s: s}
	o.err = s.ls.Wait(sessionTimeout)
	if o.err == nil {
		if got, ok := s.ls.Bytes(); !ok || !bytes.Equal(got, l.data[s.content]) {
			o.err = errors.New("delivered bytes differ from the source content")
		}
	}
	o.end = time.Now()
	o.total, o.dup, o.recovered = s.ls.Stats()
	if o.err != nil {
		s.ls.Close() // a completed leaf is reaped by its node; a failed one is not
	}
	return o
}

// warmUp streams every content once per population, untimed, so caches,
// pools and lazily built state are in place before the first timed
// session.
func (l *liveWorkload) warmUp() error {
	var wg sync.WaitGroup
	errs := make(chan error, len(l.pops)*len(l.ids)) // one slot per warm-up session
	n := 0
	for pop := range l.pops {
		for c := range l.ids {
			s := l.plan(live.SessionID(fmt.Sprintf("w%d", n)), -1, pop, c)
			n++
			if err := l.open(s); err != nil {
				return fmt.Errorf("warm-up open: %w", err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if o := l.await(s); o.err != nil {
					errs <- fmt.Errorf("warm-up %s: %w", s.id, o.err)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	return <-errs
}

func (l *liveWorkload) packetsOf(s *session) float64 {
	return float64((len(l.data[s.content]) + l.spec.packetSize - 1) / l.spec.packetSize)
}

// measure generates load from this one goroutine for d, then drains.
// Work is what the window delivered: the packets of sessions completed
// inside it plus the packets the still-running ones had assembled when
// it closed (all of them verified once they finish).
func (l *liveWorkload) measure(d time.Duration) (window, error) {
	var w window
	l.leafTotal, l.leafDup, l.leafRecovered, l.sessions = 0, 0, 0, 0
	done := make(chan outcome)
	inflight := make(map[int]*session)
	issued, closed := 0, false
	w.begin = readUsage()
	start, deadline := w.begin.at, w.begin.at.Add(d)
	for {
		now := time.Now()
		if !closed && !now.Before(deadline) {
			closed = true
			w.end = readUsage()
			for _, s := range inflight {
				w.units += float64(s.ls.Progress())
			}
		}
		wake := deadline
		for !closed {
			due := now
			if l.spec.perSecond > 0 {
				due = start.Add(time.Duration(float64(issued) / l.spec.perSecond * float64(time.Second)))
			} else if len(inflight) >= l.spec.inFlight {
				break
			}
			if due.After(now) {
				if due.Before(wake) {
					wake = due
				}
				break
			}
			s := l.plan(live.SessionID(sessionName(l.next)), l.next, issued%len(l.pops), l.rng.Intn(len(l.ids)))
			l.next++
			issued++
			s.due = due
			w.lateMS = append(w.lateMS, float64(now.Sub(due))/1e6)
			w.attempted++
			if err := l.open(s); err != nil {
				return w, fmt.Errorf("%s: open %s: %w", l.spec.name, s.id, err)
			}
			inflight[s.idx] = s
			go func() { done <- l.await(s) }()
			now = time.Now()
		}
		if closed && len(inflight) == 0 {
			return w, nil
		}
		var timer <-chan time.Time
		if !closed {
			timer = time.After(time.Until(wake))
		}
		select {
		case o := <-done:
			delete(inflight, o.s.idx)
			w.opMS = append(w.opMS, float64(o.end.Sub(o.s.due))/1e6)
			if o.err != nil {
				w.fail("%s: %v", o.s.id, o.err)
			} else if !closed {
				w.units += l.packetsOf(o.s)
			}
			l.leafTotal += o.total
			l.leafDup += o.dup
			l.leafRecovered += int64(o.recovered)
			l.sessions++
			if l.rec.enabled() {
				l.rec.add(span{ID: o.s.spanID, Name: spanSession, Op: int32(o.s.idx), Node: o.s.leaf.trace.node, Peer: -1,
					Start: int64(o.s.due.Sub(l.rec.epoch)), End: int64(o.end.Sub(l.rec.epoch))})
			}
		case <-timer:
		}
	}
}
