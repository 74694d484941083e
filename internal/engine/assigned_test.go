package engine_test

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"p2pmss/internal/des"
	"p2pmss/internal/engine"
	"p2pmss/internal/seq"
)

// Outcome().Assigned is derived on demand from the shares the peer
// recorded (an O(1) append per assignment). These tests pin it to the
// definition — the left fold of seq.Union over the shares in arrival
// order — on the data-plane harness, and pin what a merge may cost.

// shareLog records, per peer, every share the engine took on.
func shareLog(h *harness) [][]seq.Sequence {
	log := make([][]seq.Sequence, len(h.peers))
	h.onAssign = func(to engine.PeerID, s seq.Sequence) {
		log[to] = append(log[to], s)
	}
	return log
}

// checkAssigned compares every peer's Outcome().Assigned, packet for
// packet, with the reference fold over its logged shares.
func checkAssigned(t *testing.T, label string, h *harness, log [][]seq.Sequence) {
	t.Helper()
	merges := 0
	for i, p := range h.peers {
		var want seq.Sequence
		for _, s := range log[i] {
			want = seq.Union(want, s)
		}
		if len(log[i]) > 1 {
			merges++
		}
		got := p.Outcome().Assigned()
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: peer %d: Assigned over %d shares\n got %v\nwant %v", label, i, len(log[i]), got, want)
		}
	}
	t.Logf("%s: %d peers hold more than one share", label, merges)
}

func TestOutcomeAssignedEqualsLeftFoldOfShares(t *testing.T) {
	content := seq.Range(1, 600)
	for _, dcop := range []bool{true, false} {
		for seed := int64(1); seed <= 6; seed++ {
			h := newHarness(baseConfig(24, 4, dcop), seed)
			log := shareLog(h)
			h.start(content, 12, seed)
			h.run()
			checkAssigned(t, protoName(dcop), h, log)

			h.reset(seed)
			for i, p := range h.peers {
				if a := p.Outcome().Assigned(); a != nil {
					t.Fatalf("%s seed %d: peer %d still reports %d assigned packets after Reset", protoName(dcop), seed, i, len(a))
				}
			}
		}
	}
}

// Every message delivered twice: the duplicate must not become a second
// operand of pkt_i.
func TestOutcomeAssignedUnderDuplicateDelivery(t *testing.T) {
	content := seq.Range(1, 300)
	for _, dcop := range []bool{true, false} {
		for seed := int64(1); seed <= 5; seed++ {
			h := newHarness(baseConfig(16, 3, dcop), seed)
			h.dupWhen = func(engine.PeerID, engine.Event) bool { return true }
			log := shareLog(h)
			h.start(content, 12, seed)
			h.run()
			checkAssigned(t, protoName(dcop)+" duplicated", h, log)
		}
	}
}

// Crashed children: DCoP controls and TCoP commits that cannot be
// delivered are absorbed back by the parent, which changes streams and
// rates but never what was assigned.
func TestOutcomeAssignedUnderCrashAndAbsorb(t *testing.T) {
	content := seq.Range(1, 300)
	for _, dcop := range []bool{true, false} {
		absorbed := 0
		for seed := int64(1); seed <= 6; seed++ {
			cfg := baseConfig(12, 3, dcop)
			h := newHarness(cfg, seed)
			if dcop {
				// Two peers the leaf did not select are down from the start:
				// controls to them fail at the sender.
				lr := des.NewRand(engine.PeerSeed(seed, engine.LeafID))
				_, spares := engine.SelectInitial(lr, cfg.N, cfg.H)
				h.crashed[spares[0]], h.crashed[spares[1]] = true, true
			} else {
				// A child dies between its confirmation and the commit.
				crashedOne := false
				h.crashWhen = func(to engine.PeerID, ev engine.Event) engine.PeerID {
					if c, ok := ev.(*engine.Confirm); ok && c.Msg.Accept && !crashedOne {
						crashedOne = true
						return c.Msg.Child
					}
					return -1
				}
			}
			log := shareLog(h)
			h.start(content, 12, seed)
			h.run()
			checkAssigned(t, protoName(dcop)+" with crashes", h, log)
			for _, o := range h.outcomes() {
				absorbed += o.Absorbed
			}
		}
		if absorbed == 0 {
			t.Errorf("%s: no seed exercised the absorb path", protoName(dcop))
		}
	}
}

func protoName(dcop bool) string {
	if dcop {
		return "DCoP"
	}
	return "TCoP"
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A DCoP control reaching an active peer unions the unsent remainder
// with the new share at most once, and only when it then shares out:
// with holes in the view the step allocates one union — the Merge effect
// carries it for the driver to install — plus what ShareOut itself costs
// on the merged stream; with a full view it builds no union at all, and
// the driver's schedule merges the share in as it sends.
func TestMergeUnionsOnce(t *testing.T) {
	const l = 20000
	own, share := seq.Div(seq.Range(1, l), 2, 0), seq.Div(seq.Range(1, l), 2, 1)
	union := uint64(l) * uint64(unsafe.Sizeof(seq.Packet{}))

	for _, fullView := range []bool{true, false} {
		cfg := baseConfig(8, 2, true)
		cfg.FirstFanout = 1 // activation takes at most one child; the cap leaves one for the merge
		selected := []engine.PeerID{1}
		if fullView {
			selected = []engine.PeerID{0, 1, 2, 3, 4, 5, 6, 7}
		}
		p := newTestPeer(t, cfg, 1)
		p.Handle(&engine.Request{Assigned: own, Rate: 4, Selected: selected, Round: 1}, engine.Snapshot{})

		ctl := &engine.Control{Msg: &engine.MsgControl{
			Parent: 0, Round: 2, ChildIdx: 1, Rate: 4, ChildRate: 2, Children: 2, AssignedSeq: share,
		}}
		snap := engine.Snapshot{Offset: 100, Stream: own, Rate: 4}
		var effs []engine.Effect
		got := allocated(func() { effs = p.Handle(ctl, snap) })

		var merged seq.Sequence
		handoffs := 0
		for _, e := range effs {
			switch e := e.(type) {
			case *engine.Merge:
				merged = e.Stream
			case *engine.Handoff:
				handoffs++
			}
		}
		if (handoffs == 0) != fullView {
			t.Fatalf("fullView=%v: %d hand-offs — the scenario did not take the intended path", fullView, handoffs)
		}
		if fullView {
			if merged != nil || got > union/8 {
				t.Errorf("full view: Merge.Stream has %d packets and the step allocated %d B, want no union (one is %d B)", len(merged), got, union)
			}
			continue
		}
		if want := seq.Union(own[100:], share); !reflect.DeepEqual(merged, want) {
			t.Fatalf("Merge.Stream has %d packets, want the %d of remainder ∪ share", len(merged), len(want))
		}
		budget := union + union/2 + allocated(func() {
			engine.ShareOut(merged, engine.MarkOffset(0, cfg.MarkDelta, 6), 6, cfg.Interval, 2)
		})
		if got < union-union/8 || got > budget {
			t.Errorf("the merge step allocated %d B; one union is %d B, budget %d B", got, union, budget)
		}
	}
}
