package engine_test

import (
	"testing"

	"p2pmss/internal/engine"
	"p2pmss/internal/seq"
)

// FuzzEngine drives a small overlay through fuzzer-chosen churn — per
// delivery, the plan bytes decide whether the message is dropped or its
// receiver crashes — and checks the engine's core invariants after
// every single event:
//
//   - no panics, under either protocol;
//   - TCoP: at most one parent ever (a committed peer's parent never
//     changes, and an active peer never re-adopts);
//   - DCoP: the assigned union only grows (pkt_i := pkt_i ∪ pkt_ji is
//     monotone) and the §3.3 lifetime cap holds;
//   - children lists never exceed the lifetime cap under DCoP.
func FuzzEngine(f *testing.F) {
	f.Add(int64(1), false, []byte{0})
	f.Add(int64(2), true, []byte{0})
	f.Add(int64(3), false, []byte{7, 1, 255, 3})
	f.Add(int64(4), true, []byte{2, 9, 4, 128, 33})
	f.Add(int64(5), false, []byte{1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, seed int64, dcop bool, plan []byte) {
		if len(plan) == 0 {
			plan = []byte{0}
		}
		cfg := baseConfig(10, 3, dcop)
		h := newHarness(cfg, seed)

		step := 0
		h.dropWhen = func(to engine.PeerID, ev engine.Event) bool {
			b := plan[step%len(plan)]
			step++
			return b&0x0f == 1
		}
		h.crashWhen = func(to engine.PeerID, ev engine.Event) engine.PeerID {
			b := plan[(step+1)%len(plan)]
			if b&0x1f == 2 {
				return engine.PeerID(int(b>>5) % cfg.N)
			}
			return -1
		}

		prevAssigned := make(map[engine.PeerID]map[string]bool)
		prevParent := make(map[engine.PeerID]int)
		committedParent := make(map[engine.PeerID]int)
		h.afterHandle = func(to engine.PeerID) {
			p := h.peers[to]
			o := p.Outcome()
			// Assigned union is monotone under both protocols.
			seen := prevAssigned[to]
			cur := make(map[string]bool, len(o.Assigned()))
			for _, k := range o.Assigned().Keys() {
				cur[k] = true
			}
			for k := range seen {
				if !cur[k] {
					t.Fatalf("peer %d: assigned union lost key %s", to, k)
				}
			}
			prevAssigned[to] = cur

			if dcop {
				if engine.ChildrenTaken(p) > cfg.H {
					t.Fatalf("peer %d exceeded the lifetime fanout cap: %d > %d", to, engine.ChildrenTaken(p), cfg.H)
				}
			} else {
				// Once committed to a parent, the adoption never moves.
				if was, ok := committedParent[to]; ok && o.Parent != was {
					t.Fatalf("peer %d: committed parent changed %d -> %d", to, was, o.Parent)
				}
				if o.Committed {
					committedParent[to] = o.Parent
				}
				// An adoption can lapse to -1 (commit-release) but never
				// jump parent-to-parent without releasing in between.
				if was, ok := prevParent[to]; ok && was >= 0 && o.Parent >= 0 && o.Parent != was {
					t.Fatalf("peer %d: re-adopted %d -> %d without release", to, was, o.Parent)
				}
				prevParent[to] = o.Parent
			}
		}

		h.start(seq.Range(1, 30), 9, seed)
		h.run()
	})
}
