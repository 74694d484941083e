package engine_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"p2pmss/internal/des"
	"p2pmss/internal/engine"
	"p2pmss/internal/seq"
)

// describeEffect writes an effect, and the message a Send carries, field
// by field: what a driver reads of it, and nothing of where its node
// came from.
func describeEffect(b *strings.Builder, e engine.Effect) {
	switch e := e.(type) {
	case *engine.Send:
		fmt.Fprintf(b, "send to=%d ", e.To)
		switch m := e.Msg.(type) {
		case *engine.MsgControl:
			fmt.Fprintf(b, "control parent=%d view=%v off=%d rate=%v child=%v n=%d idx=%d seq=%v round=%d",
				m.Parent, m.View, m.SeqOffset, m.Rate, m.ChildRate, m.Children, m.ChildIdx, m.AssignedSeq.Keys(), m.Round)
		case *engine.MsgConfirm:
			fmt.Fprintf(b, "confirm child=%d accept=%v round=%d", m.Child, m.Accept, m.Round)
		case *engine.MsgCommit:
			fmt.Fprintf(b, "commit parent=%d streams=%d off=%d rate=%v idx=%d seq=%v round=%d",
				m.Parent, m.Streams, m.SeqOffset, m.Rate, m.ChildIdx, m.AssignedSeq.Keys(), m.Round)
		default:
			fmt.Fprintf(b, "%T", m)
		}
	case *engine.SetTimer:
		fmt.Fprintf(b, "timer %+v %v", e.ID, e.Delay)
	case *engine.Activate:
		fmt.Fprintf(b, "activate %v rate=%v round=%d", e.Seq.Keys(), e.Rate, e.Round)
	case *engine.Merge:
		fmt.Fprintf(b, "merge %v stream=%v rate=%v round=%d", e.Seq.Keys(), e.Stream.Keys(), e.Rate, e.Round)
	case *engine.Handoff:
		fmt.Fprintf(b, "handoff keep=%v given=[", e.Keep.Keys())
		for _, g := range e.Given {
			fmt.Fprintf(b, "%v", g.Keys())
		}
		fmt.Fprintf(b, "] %v→%v mark=%d", e.OldRate, e.NewRate, e.Mark)
	case *engine.Absorb:
		fmt.Fprintf(b, "absorb %v %v", e.Seq.Keys(), e.RateDelta)
	case *engine.ServeRepair:
		fmt.Fprintf(b, "repair %v", e.Indices)
	default:
		fmt.Fprintf(b, "%T", e)
	}
	b.WriteByte('\n')
}

// poolHooks are the harness's impairments, each built fresh per run:
// none, every third delivery duplicated, every fifth message lost, and
// every fourth accepting child crashed as its confirmation arrives.
var poolHooks = map[string]func(h *harness){
	"none": func(*harness) {},
	"dup": func(h *harness) {
		n := 0
		h.dupWhen = func(engine.PeerID, engine.Event) bool { n++; return n%3 == 0 }
	},
	"drop": func(h *harness) {
		n := 0
		h.dropWhen = func(_ engine.PeerID, ev engine.Event) bool {
			switch ev.(type) {
			case *engine.Control, *engine.Confirm, *engine.Commit:
				n++
				return n%5 == 0
			}
			return false
		}
	},
	"crash": func(h *harness) {
		n := 0
		h.crashWhen = func(_ engine.PeerID, ev engine.Event) engine.PeerID {
			if c, ok := ev.(*engine.Confirm); ok && c.Msg.Accept {
				if n++; n%4 == 0 {
					return c.Msg.Child
				}
			}
			return -1
		}
	},
}

// TestSharedPoolMatchesOwnPools runs the same rounds once with every
// peer on one Pool, as the simulator builds them, and once with a pool
// per peer: every effect batch, message fields included, and every
// final outcome must agree. A consumer that read a message after
// ReleaseMsg would read, on the shared pool, a node another peer had
// already taken again.
func TestSharedPoolMatchesOwnPools(t *testing.T) {
	run := func(cfg engine.Config, content seq.Sequence, seed int64, hook func(*harness), pl *engine.Pool) (string, string) {
		h := newHarnessOn(cfg, seed, pl)
		hook(h)
		var b strings.Builder
		h.onBatch = func(to engine.PeerID, effs []engine.Effect) {
			fmt.Fprintf(&b, "peer %d:\n", to)
			for _, e := range effs {
				describeEffect(&b, e)
			}
		}
		h.start(content, 12, seed)
		h.run()
		outs, err := json.Marshal(h.outcomes())
		if err != nil {
			t.Fatal(err)
		}
		return b.String(), string(outs)
	}
	for _, dcop := range []bool{false, true} {
		for _, content := range []seq.Sequence{nil, seq.Range(1, 60)} {
			for name, hook := range poolHooks {
				for seed := int64(1); seed <= 20; seed++ {
					cfg := baseConfig(24, 4, dcop)
					ownEffs, ownOuts := run(cfg, content, seed, hook, nil)
					sharedEffs, sharedOuts := run(cfg, content, seed, hook, new(engine.Pool))
					if ownEffs != sharedEffs {
						t.Fatalf("dcop=%v data=%v %s seed %d: effects differ on a shared pool:\n%s\n--vs own pools--\n%s",
							dcop, content != nil, name, seed, sharedEffs, ownEffs)
					}
					if ownOuts != sharedOuts {
						t.Fatalf("dcop=%v data=%v %s seed %d: outcomes differ on a shared pool:\n%s\n--vs own pools--\n%s",
							dcop, content != nil, name, seed, sharedOuts, ownOuts)
					}
				}
			}
		}
	}
}

// TestTCoPSparesSurviveOtherSelections: a TCoP peer keeps the spare
// tail of its selection as the candidates it retries when a child
// declines. Other peers of its pool select in between; the candidate
// it then retries must be the one a peer with a pool of its own
// retries, so the selection buffer stays the peer's own.
func TestTCoPSparesSurviveOtherSelections(t *testing.T) {
	cfg := baseConfig(30, 3, false)
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	rng := func(seed int64, id engine.PeerID) *rand.Rand { return des.NewRand(engine.PeerSeed(seed, id)) }
	retried := func(seed int64, pl *engine.Pool) engine.PeerID {
		t.Helper()
		var p *engine.Peer
		if pl != nil {
			p = pl.NewPeer(cfg, 0, engine.PeerSeed(seed, 0))
		} else {
			p = engine.NewPeer(cfg, 0, rng(seed, 0))
		}
		effs := p.Handle(&engine.Request{Rate: 10, Selected: []engine.PeerID{0}, Round: 1}, engine.Snapshot{})
		var declined engine.PeerID = -1
		for _, e := range effs {
			if s, ok := e.(*engine.Send); ok {
				declined = s.To
				break
			}
		}
		p.Release(effs)
		if declined < 0 {
			t.Fatalf("seed %d: the leaf-selected peer sent no control", seed)
		}
		if pl != nil {
			for id := engine.PeerID(1); id <= 4; id++ {
				other := pl.NewPeer(cfg, id, engine.PeerSeed(seed, id))
				other.Release(other.Handle(&engine.Request{Rate: 10, Selected: []engine.PeerID{id}, Round: 1}, engine.Snapshot{}))
			}
		}
		effs = p.Handle(&engine.Confirm{Msg: &engine.MsgConfirm{Child: declined, Accept: false, Round: 2}}, engine.Snapshot{})
		defer p.Release(effs)
		for _, e := range effs {
			if s, ok := e.(*engine.Send); ok {
				return s.To
			}
		}
		t.Fatalf("seed %d: a declined control was not retried", seed)
		return -1
	}
	for seed := int64(1); seed <= 20; seed++ {
		if own, shared := retried(seed, nil), retried(seed, new(engine.Pool)); own != shared {
			t.Errorf("seed %d: retried peer %d on a shared pool, %d on its own", seed, shared, own)
		}
	}
}

// sentControls lists the control messages in effs and their recipients.
func sentControls(effs []engine.Effect) (ctls []*engine.MsgControl, to []engine.PeerID) {
	for _, e := range effs {
		if s, ok := e.(*engine.Send); ok {
			if m, ok := s.Msg.(*engine.MsgControl); ok {
				ctls, to = append(ctls, m), append(to, s.To)
			}
		}
	}
	return ctls, to
}

// TestSelectionSharesOneView pins the ownership rule of MsgControl.View:
// every control of one selection points at one list, the sender's view,
// and nothing writes that list while a control holds it. A released
// control drops it, and the pool takes it back only with the last
// sibling: releasing one control and then running another DCoP
// selection, a TCoP wave and a TCoP retry on the same pool leaves the
// siblings' view as it was.
func TestSelectionSharesOneView(t *testing.T) {
	pl := new(engine.Pool)
	dcfg, tcfg := baseConfig(40, 5, true), baseConfig(40, 5, false)
	for _, cfg := range []*engine.Config{&dcfg, &tcfg} {
		if err := cfg.Normalize(); err != nil {
			t.Fatal(err)
		}
	}
	peer := func(cfg engine.Config, id engine.PeerID) *engine.Peer {
		return pl.NewPeer(cfg, id, engine.PeerSeed(7, id))
	}
	request := func(id engine.PeerID) *engine.Request {
		return &engine.Request{Rate: 10, Selected: []engine.PeerID{id, id + 1}, Round: 1}
	}

	p := peer(dcfg, 0)
	effs := p.Handle(request(0), engine.Snapshot{})
	ctls, children := sentControls(effs)
	if len(ctls) < 3 {
		t.Fatalf("the DCoP selection sent %d controls, want at least 3", len(ctls))
	}
	want := append([]engine.PeerID{0, 1}, children...)
	slices.Sort(want)
	for i, m := range ctls {
		if !slices.Equal(m.View, want) {
			t.Fatalf("control %d carries view %v, want %v", i, m.View, want)
		}
		if &m.View[0] != &ctls[0].View[0] {
			t.Errorf("control %d carries a view of its own, not the selection's", i)
		}
	}
	p.Release(effs)
	engine.ReleaseMsg(ctls[0])
	if ctls[0].View != nil {
		t.Errorf("a released control keeps its view %v for the pool to hand out", ctls[0].View)
	}
	siblings := ctls[1:]

	q := peer(dcfg, 10)
	effs = q.Handle(request(10), engine.Snapshot{})
	if c, _ := sentControls(effs); len(c) == 0 {
		t.Fatal("the second DCoP selection sent no control")
	}
	q.Release(effs)

	tp := peer(tcfg, 20)
	effs = tp.Handle(request(20), engine.Snapshot{})
	_, wave := sentControls(effs)
	if len(wave) == 0 {
		t.Fatal("the TCoP wave sent no control")
	}
	tp.Release(effs)
	effs = tp.Handle(&engine.Confirm{Msg: &engine.MsgConfirm{Child: wave[0], Accept: false, Round: 2}}, engine.Snapshot{})
	if retry, _ := sentControls(effs); len(retry) != 1 {
		t.Fatalf("a declined TCoP control was retried with %d controls, want 1", len(retry))
	}
	tp.Release(effs)

	for i, m := range siblings {
		if !slices.Equal(m.View, want) {
			t.Errorf("sibling control %d now carries view %v, want %v", i+1, m.View, want)
		}
	}

	// With the last of its controls released, the view serves the next
	// selection.
	backing := &siblings[0].View[0]
	for _, m := range siblings {
		engine.ReleaseMsg(m)
	}
	r := peer(dcfg, 30)
	effs = r.Handle(request(30), engine.Snapshot{})
	if c, _ := sentControls(effs); len(c) == 0 || &c[0].View[0] != backing {
		t.Error("the next selection did not reuse the view its selection released")
	}
	r.Release(effs)
}

// TestCarvedListsStayApart: the peers of one pool carve their lists from
// shared slabs, each with a capacity of its own, so a list that grows
// past its carve moves out and writes nothing into the carve after it.
// Three lists grow so: a TCoP parent's children past H through joins, a
// DCoP peer's delivered assignments past H, and a neighbour's children
// carved right before a TCoP selection's spares, which a retry then reads.
func TestCarvedListsStayApart(t *testing.T) {
	snap := engine.Snapshot{Stream: seq.Range(1, 400), Rate: 10}
	tcfg, dcfg := baseConfig(40, 3, false), baseConfig(40, 3, true)
	for _, cfg := range []*engine.Config{&tcfg, &dcfg} {
		if err := cfg.Normalize(); err != nil {
			t.Fatal(err)
		}
	}
	// release gives p's batch back and returns whom it sent to.
	release := func(p *engine.Peer, effs []engine.Effect) []engine.PeerID {
		var to []engine.PeerID
		for _, e := range effs {
			if s, ok := e.(*engine.Send); ok {
				to = append(to, s.To)
			}
		}
		p.Release(effs)
		return to
	}
	// request activates p from the leaf and returns the wave it asked.
	request := func(p *engine.Peer, id engine.PeerID) []engine.PeerID {
		return release(p, p.Handle(&engine.Request{Assigned: snap.Stream, Rate: 10, Selected: []engine.PeerID{id}, Round: 1}, snap))
	}
	// commit has p's whole wave accept, so p commits every child of it.
	commit := func(p *engine.Peer, wave []engine.PeerID) {
		for _, c := range wave {
			release(p, p.Handle(&engine.Confirm{Msg: &engine.MsgConfirm{Child: c, Accept: true, Round: 2}}, snap))
		}
		if got := p.Outcome().Children; !slices.Equal(got, wave) {
			t.Fatalf("a peer whose wave %v all accepted has children %v", wave, got)
		}
	}
	join := func(p *engine.Peer, joiner engine.PeerID) {
		if to := release(p, p.Handle(&engine.Join{Joiner: joiner}, snap)); !slices.Equal(to, []engine.PeerID{joiner}) {
			t.Fatalf("a join by %d sent to %v", joiner, to)
		}
	}
	const k = 6

	// newPeers builds peers 0..k-1 of cfg on one pool, all before any
	// of them carves a list.
	newPeers := func(cfg engine.Config) []*engine.Peer {
		pl := new(engine.Pool)
		peers := make([]*engine.Peer, k)
		for i := range peers {
			peers[i] = pl.NewPeer(cfg, engine.PeerID(i), engine.PeerSeed(3, engine.PeerID(i)))
		}
		return peers
	}

	t.Run("TCoP children past H", func(t *testing.T) {
		peers := newPeers(tcfg)
		waves := make([][]engine.PeerID, k)
		for i, p := range peers {
			waves[i] = request(p, engine.PeerID(i))
		}
		want := make([][]engine.PeerID, k)
		for i, p := range peers { // the children lists, carved one after another
			commit(p, waves[i])
			want[i] = p.Outcome().Children
		}
		for i, p := range peers {
			for j := 0; j < 3*tcfg.H; j++ {
				joiner := engine.PeerID(100 + 20*i + j)
				join(p, joiner)
				want[i] = append(want[i], joiner)
			}
			for n, q := range peers {
				if got := q.Outcome().Children; !slices.Equal(got, want[n]) {
					t.Fatalf("after peer %d took %d joiners, peer %d has children %v, want %v", i, 3*tcfg.H, n, got, want[n])
				}
			}
		}
	})

	t.Run("DCoP assignments past H", func(t *testing.T) {
		control := func(round int) *engine.Control {
			return &engine.Control{Msg: &engine.MsgControl{Parent: 30, Round: round, ChildIdx: 1, Children: 1, ChildRate: 1}}
		}
		peers := newPeers(dcfg)
		for i, p := range peers { // the delivered-assignment lists, carved one after another
			effs := p.Handle(control(1), engine.Snapshot{})
			if effs == nil {
				t.Fatalf("peer %d dropped its first control", i)
			}
			p.Release(effs)
		}
		for i, p := range peers {
			for round := 2; round < 2+3*dcfg.H; round++ {
				effs := p.Handle(control(round), engine.Snapshot{})
				if effs == nil {
					t.Fatalf("peer %d dropped a control of round %d it never saw", i, round)
				}
				p.Release(effs)
			}
			for n, q := range peers {
				if effs := q.Handle(control(1), engine.Snapshot{}); effs != nil {
					t.Fatalf("after peer %d took %d more assignments, peer %d took its first control again", i, 3*dcfg.H, n)
				}
			}
		}
	})

	t.Run("TCoP spares after a neighbour's children", func(t *testing.T) {
		// retried has peer 0 select, then declines the first control of
		// its wave and every retry, and returns whom it retried, in
		// order. On a shared pool, peer 1's children are carved right
		// before peer 0's selection and grow past H after it, and two
		// more peers select before the retries read the spares.
		retried := func(shared bool) []engine.PeerID {
			pl := new(engine.Pool)
			var x *engine.Peer
			if shared {
				pl.NewPeer(tcfg, 9, engine.PeerSeed(5, 9)) // the slabs come with a second peer
				x = pl.NewPeer(tcfg, 1, engine.PeerSeed(5, 1))
				commit(x, request(x, 1))
			}
			p := pl.NewPeer(tcfg, 0, engine.PeerSeed(5, 0))
			wave := request(p, 0)
			if shared {
				for j := 0; j < 4*tcfg.H; j++ {
					join(x, engine.PeerID(100+j))
				}
				for _, id := range []engine.PeerID{2, 3} {
					request(pl.NewPeer(tcfg, id, engine.PeerSeed(5, id)), id)
				}
			}
			var got []engine.PeerID
			for declined := wave[0]; ; {
				to := release(p, p.Handle(&engine.Confirm{Msg: &engine.MsgConfirm{Child: declined, Accept: false, Round: 2}}, snap))
				if len(to) != 1 {
					return got
				}
				got, declined = append(got, to[0]), to[0]
			}
		}
		own, shared := retried(false), retried(true)
		if len(own) != tcfg.Retries || !slices.Equal(shared, own) {
			t.Errorf("on a shared pool peer 0 retried %v, on its own %v (want %d retries)", shared, own, tcfg.Retries)
		}
	})
}

// TestOwnPoolsStaySmall: every live peer owns its pool (the live runtime
// builds each serving peer with new(engine.Pool).NewPeer), so a pool's
// blocks grow with what its one peer takes and do not start full. A
// session of the live benchmark's shape (n = 8, H = 3), every peer built
// that way, allocates no more bytes than the same session did when pools
// took one record at a time and each peer drew from a *rand.Rand of its
// own: maxBytes are those figures, measured with this harness.
func TestOwnPoolsStaySmall(t *testing.T) {
	for _, c := range []struct {
		dcop     bool
		maxBytes uint64
	}{{false, 25672}, {true, 24048}} {
		cfg := baseConfig(8, 3, c.dcop)
		var before, after runtime.MemStats
		least := ^uint64(0)
		for i := 0; i < 5; i++ {
			runtime.ReadMemStats(&before)
			if err := cfg.Normalize(); err != nil {
				t.Fatal(err)
			}
			h := &harness{cfg: cfg, crashed: make(map[engine.PeerID]bool)}
			for i := 0; i < cfg.N; i++ {
				id := engine.PeerID(i)
				h.peers = append(h.peers, new(engine.Pool).NewPeer(cfg, id, engine.PeerSeed(1, id)))
				h.streams = append(h.streams, engine.Stream{})
			}
			h.start(nil, 10, 1)
			h.run()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > c.maxBytes {
			t.Errorf("dcop=%v: a session on pools of one peer allocated %d bytes, more than %d", c.dcop, least, c.maxBytes)
		}
	}
}
