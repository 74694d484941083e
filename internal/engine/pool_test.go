package engine_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
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
			p = pl.NewPeer(cfg, 0, rng(seed, 0))
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
				other := pl.NewPeer(cfg, id, rng(seed, id))
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
		return pl.NewPeer(cfg, id, des.NewRand(engine.PeerSeed(7, id)))
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
