package engine_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
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
