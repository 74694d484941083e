package engine_test

import (
	"testing"

	"p2pmss/internal/engine"
	"p2pmss/internal/seq"
)

// Regression tests for duplicate message delivery. Datagram transports
// deliver a packet zero, one, or several times; every engine handler
// must be idempotent per packet, not per handling.

func newTestPeer(t *testing.T, cfg engine.Config, id engine.PeerID) *engine.Peer {
	t.Helper()
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	return new(engine.Pool).NewPeer(cfg, id, engine.PeerSeed(1, id))
}

func confirmsOf(effs []engine.Effect) []engine.MsgConfirm {
	var out []engine.MsgConfirm
	for _, e := range effs {
		if s, ok := e.(*engine.Send); ok {
			if m, ok := s.Msg.(*engine.MsgConfirm); ok {
				out = append(out, *m)
			}
		}
	}
	return out
}

func countTimers(effs []engine.Effect, kind engine.TimerKind) int {
	n := 0
	for _, e := range effs {
		if st, ok := e.(*engine.SetTimer); ok && st.ID.Kind == kind {
			n++
		}
	}
	return n
}

// TestTCoPDuplicateControlReconfirms: a duplicated c1 from the peer's
// own adopted parent must be re-acknowledged with Accept, not refused.
// Before the fix the duplicate drew Accept:false — and on a reordering
// network that refusal could overtake the original acceptance, making
// the parent replace its own child. The re-ack must not re-arm the
// commit-release deadline.
func TestTCoPDuplicateControlReconfirms(t *testing.T) {
	cfg := baseConfig(8, 2, false)
	p := newTestPeer(t, cfg, 1)
	c1 := &engine.Control{Msg: &engine.MsgControl{Parent: 0, Round: 1, Rate: 4, Children: 2}}

	first := confirmsOf(p.Handle(c1, engine.Snapshot{}))
	if len(first) != 1 || !first[0].Accept {
		t.Fatalf("original c1 answered %+v, want one acceptance", first)
	}

	effs := p.Handle(c1, engine.Snapshot{})
	dup := confirmsOf(effs)
	if len(dup) != 1 || !dup[0].Accept {
		t.Fatalf("duplicated c1 from adopted parent answered %+v, want re-acceptance", dup)
	}
	if n := countTimers(effs, engine.TimerRelease); n != 0 {
		t.Fatalf("duplicated c1 re-armed %d release timer(s)", n)
	}

	// First-parent-wins is untouched: a c1 from a different parent is
	// still refused.
	other := confirmsOf(p.Handle(&engine.Control{Msg: &engine.MsgControl{Parent: 3, Round: 1, Rate: 4, Children: 2}}, engine.Snapshot{}))
	if len(other) != 1 || other[0].Accept {
		t.Fatalf("rival parent's c1 answered %+v, want refusal", other)
	}
}

// TestDCoPDuplicateControlIgnored: re-delivering the same DCoP c1 must
// not merge the assignment (and its rate) a second time, and must not
// burn another flooding round out of the §3.3 lifetime child budget.
func TestDCoPDuplicateControlIgnored(t *testing.T) {
	cfg := baseConfig(8, 2, true)
	p := newTestPeer(t, cfg, 1)
	m := &engine.MsgControl{
		Parent: 0, Round: 1, ChildIdx: 1, Rate: 4, ChildRate: 2,
		Children: 2, AssignedSeq: seq.Range(1, 6),
	}

	first := p.Handle(&engine.Control{Msg: m}, engine.Snapshot{})
	if len(first) == 0 {
		t.Fatal("original c1 produced no effects")
	}
	taken := engine.ChildrenTaken(p)

	snap := engine.Snapshot{Stream: m.AssignedSeq, Rate: m.ChildRate}
	if dup := p.Handle(&engine.Control{Msg: m}, snap); len(dup) != 0 {
		t.Fatalf("duplicated c1 produced effects: %+v", dup)
	}
	if engine.ChildrenTaken(p) != taken {
		t.Fatalf("duplicated c1 took %d extra children", engine.ChildrenTaken(p)-taken)
	}
	if a := p.Outcome().Assigned(); !seq.Equal(a, m.AssignedSeq) {
		t.Fatalf("after a duplicated c1 the peer reports %v assigned, want %v", a, m.AssignedSeq)
	}

	// A genuinely new assignment from another parent still merges.
	m2 := *m
	m2.Parent = 3
	m2.Round = 2
	merged := false
	for _, e := range p.Handle(&engine.Control{Msg: &m2}, snap) {
		if _, ok := e.(*engine.Merge); ok {
			merged = true
		}
	}
	if !merged {
		t.Fatal("fresh c1 from a second parent did not merge")
	}
}

// TestDCoPDuplicateCommitIgnored: a re-delivered join grant must merge
// once, while a later legitimate grant (different offset) still lands.
func TestDCoPDuplicateCommitIgnored(t *testing.T) {
	cfg := baseConfig(8, 2, true)
	p := newTestPeer(t, cfg, 1)
	// Activate the peer first so commits take the merge path.
	act := &engine.MsgControl{Parent: 0, Round: 1, ChildIdx: 1, Rate: 4, ChildRate: 2, Children: 2, AssignedSeq: seq.Range(1, 6)}
	p.Handle(&engine.Control{Msg: act}, engine.Snapshot{})
	snap := engine.Snapshot{Stream: act.AssignedSeq, Rate: act.ChildRate}

	grant := &engine.MsgCommit{Parent: 2, Streams: 2, SeqOffset: 4, Rate: 1, ChildIdx: 1, AssignedSeq: seq.Range(7, 10), Round: 3}
	merges := func(effs []engine.Effect) int {
		n := 0
		for _, e := range effs {
			if _, ok := e.(*engine.Merge); ok {
				n++
			}
		}
		return n
	}
	if n := merges(p.Handle(&engine.Commit{Msg: grant}, snap)); n != 1 {
		t.Fatalf("original grant merged %d times, want 1", n)
	}
	if effs := p.Handle(&engine.Commit{Msg: grant}, snap); len(effs) != 0 {
		t.Fatalf("duplicated grant produced effects: %+v", effs)
	}
	later := *grant
	later.SeqOffset = 9
	later.AssignedSeq = seq.Range(11, 14)
	if n := merges(p.Handle(&engine.Commit{Msg: &later}, snap)); n != 1 {
		t.Fatalf("later grant at a new offset merged %d times, want 1", n)
	}
	want := seq.Union(seq.Union(act.AssignedSeq, grant.AssignedSeq), later.AssignedSeq)
	if a := p.Outcome().Assigned(); !seq.Equal(a, want) {
		t.Fatalf("assigned %v, want each of the three shares once: %v", a, want)
	}
}
