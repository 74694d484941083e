// Package conformance_test checks that the discrete-event simulator and
// the live runtime — two drivers of the same internal/engine core —
// produce identical coordination results when fed identical randomness
// under zero churn: the same tree (TCoP) and the same assignment unions
// (DCoP), byte-compared as sorted (peer, parent, children, subsequence)
// lines over several seeds.
//
// The drivers are conformant because (a) every peer's engine RNG is
// seeded PeerSeed(seed, id) and the leaf's PeerSeed(seed, LeafID) on
// both sides, (b) both compute the initial assignment as
// Div(Enhance(content, h), H, index) at rate τ(h+1)/(hH), and (c) the
// live fabric's queued mode delivers messages in global FIFO order —
// the same breadth-first order the simulator's uniform latency yields.
// The content rate is set so low that no data-plane packet is sent and
// every mark stays at offset 0, removing wall-clock position from the
// comparison.
package conformance_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"p2pmss/internal/content"
	"p2pmss/internal/coord"
	"p2pmss/internal/engine"
	"p2pmss/internal/flight"
	"p2pmss/internal/live"
	"p2pmss/internal/transport"
)

const (
	confN        = 6
	confH        = 3
	confInterval = 2
	confPackets  = 40
	confRate     = 1e-6 // so slow that no data packet moves during coordination
)

// outcomeLines formats per-peer outcomes into canonical comparison
// lines. Rates are excluded: the sim plans hand-offs δ after the mark
// while the live runtime applies them at the transmit position, so
// in-flight rate bookkeeping may differ transiently; tree shape and
// assignment unions are the protocol-level result.
func outcomeLines(outs []engine.Outcome) string {
	lines := make([]string, 0, len(outs))
	for _, o := range outs {
		kids := append([]engine.PeerID(nil), o.Children...)
		sort.Slice(kids, func(i, j int) bool { return kids[i] < kids[j] })
		keys := o.Assigned().Keys()
		sort.Strings(keys)
		lines = append(lines, fmt.Sprintf("peer=%d active=%v parent=%d children=%v assigned=%v",
			o.ID, o.Active, o.Parent, kids, keys))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// simOutcomes runs the simulator and returns its per-peer outcomes,
// recording the engine event/effect stream into fl when non-nil.
func simOutcomes(t *testing.T, proto engine.Protocol, seed int64, fl *flight.Set) []engine.Outcome {
	t.Helper()
	res, err := coord.Run(proto, coord.Config{
		N: confN, H: confH, Interval: confInterval,
		Rate: confRate, Delta: 1,
		LeafShares: true,
		DataPlane:  true, ContentLen: confPackets,
		Settle: 1, Window: 1,
		Seed: seed,
		Obs:  engine.Observability{Flight: fl},
	})
	if err != nil {
		t.Fatalf("sim %s seed %d: %v", proto, seed, err)
	}
	if len(res.Outcomes) != confN {
		t.Fatalf("sim %s seed %d: %d outcomes, want %d", proto, seed, len(res.Outcomes), confN)
	}
	return res.Outcomes
}

// liveOutcomes runs the live runtime on a queued (deterministic FIFO)
// fabric and returns its per-peer outcomes in roster order, recording
// the engine event/effect stream into fl when non-nil.
func liveOutcomes(t *testing.T, proto engine.Protocol, seed int64, fl *flight.Set) []engine.Outcome {
	t.Helper()
	data := make([]byte, confPackets*16)
	for i := range data {
		data[i] = byte(i)
	}
	c := content.New("conf", data, 16)

	fab := transport.NewQueuedFabric()
	roster := make([]string, confN)
	for i := range roster {
		roster[i] = fmt.Sprintf("p%d", i)
	}
	peers := make([]*live.Peer, confN)
	for i := range roster {
		p, err := live.NewPeer(live.PeerConfig{
			Content:  c,
			Roster:   roster,
			H:        confH,
			Interval: confInterval,
			Delta:    time.Millisecond,
			Protocol: proto,
			Seed:     engine.PeerSeed(seed, engine.PeerID(i)),
			Obs:      engine.Observability{Flight: fl},
		}, live.WithFabric(fab, roster[i]))
		if err != nil {
			t.Fatalf("live peer %d: %v", i, err)
		}
		peers[i] = p
		defer p.Close()
	}
	leaf, err := live.NewLeaf(live.LeafConfig{
		Roster: roster, H: confH, Interval: confInterval,
		Rate: confRate, ContentID: c.ID(),
		ContentSize: len(data), PacketSize: 16,
		Seed: engine.PeerSeed(seed, engine.LeafID),
	}, live.WithFabric(fab, "leaf"))
	if err != nil {
		t.Fatalf("live leaf: %v", err)
	}
	defer leaf.Close()

	// The queued pump runs every handler to completion before the next
	// delivery; when the fabric quiesces, coordination has finished
	// (timers only fire later, and are stale by then).
	startAndSettle(t, fab, leaf)

	outs := make([]engine.Outcome, confN)
	for i, p := range peers {
		outs[i] = p.Outcome()
	}
	return outs
}

// startAndSettle starts the leaf from a handler, i.e. on the fabric's
// pump goroutine, and waits for the fabric to quiesce. The simulator
// issues the leaf's H requests at one instant; Start sends them one by
// one, and from any other goroutine the pump may deliver the first
// request — and enqueue the control packets it triggers — before the
// last request is queued, which is a different (legitimate, but not the
// simulator's) delivery order. On the pump nothing is delivered until
// Start returns.
func startAndSettle(t *testing.T, fab *transport.Fabric, leaf *live.Leaf) {
	t.Helper()
	var err error
	starter := fab.Endpoint("starter", func(transport.Msg) { err = leaf.Start() })
	defer starter.Close()
	if serr := starter.Send("starter", transport.Msg{Type: "start"}); serr != nil {
		t.Fatalf("live start: %v", serr)
	}
	fab.Wait()
	if err != nil {
		t.Fatalf("live start: %v", err)
	}
}

// TestSimLiveConformance runs both drivers from the same seed and
// requires byte-identical canonical outcomes, for five seeds and both
// protocols. Both sides record flight logs, so a mismatch is reported
// with the first divergent engine event — the offending peer and event,
// not just two differing outcome dumps.
func TestSimLiveConformance(t *testing.T) {
	for _, proto := range []engine.Protocol{engine.TCoP, engine.DCoP} {
		for seed := int64(1); seed <= 5; seed++ {
			simFl, liveFl := flight.NewSet(0), flight.NewSet(0)
			sim := outcomeLines(simOutcomes(t, proto, seed, simFl))
			lv := outcomeLines(liveOutcomes(t, proto, seed, liveFl))
			if sim != lv {
				report := "flight logs agree (divergence is in post-coordination state)"
				if d := flight.FirstDivergence(
					flight.Log{Label: "sim", Events: simFl.Events()},
					flight.Log{Label: "live", Events: liveFl.Events()},
					flight.DiffOptions{},
				); d != nil {
					report = d.String()
				}
				t.Errorf("%s seed %d: drivers diverged\n%s\n--- sim ---\n%s\n--- live ---\n%s",
					proto, seed, report, sim, lv)
			}
		}
	}
}

// TestSimLiveConformanceCoversContent spot-checks that the agreed-upon
// assignment unions actually cover the enhanced content (a vacuous
// conformance pass — both sides empty — would slip through the byte
// comparison).
func TestSimLiveConformanceCoversContent(t *testing.T) {
	outs := simOutcomes(t, engine.TCoP, 1, nil)
	covered := make(map[string]bool)
	total := 0
	for _, o := range outs {
		if !o.Active {
			t.Fatalf("peer %d inactive under zero churn", o.ID)
		}
		for _, k := range o.Assigned().Keys() {
			covered[k] = true
		}
		total += len(o.Assigned())
	}
	if total == 0 {
		t.Fatal("no assignments at all — conformance would be vacuous")
	}
	for k := int64(1); k <= confPackets; k++ {
		if !covered[fmt.Sprintf("t%d", k)] {
			t.Fatalf("data packet t%d assigned to nobody", k)
		}
	}
}
