package flight

import (
	"fmt"
	"sort"
	"strings"
)

// Log is one run's flight record with a human label naming the side of
// a comparison ("sim seed=3", "live seed=3").
type Log struct {
	Label  string
	Events []Event
}

// DiffOptions tunes FirstDivergence.
type DiffOptions struct {
	// IncludeTimers compares timer_* delivery events too. They are
	// excluded by default: timer firings are clock artifacts, not
	// protocol decisions — the simulator delivers every scheduled
	// deadline in virtual time while a live run's wall-clock timers may
	// never fire before shutdown — so including them diffs the clocks,
	// not the protocols. SetTimer effects (the engine's decision to arm
	// a deadline) are always compared.
	IncludeTimers bool
	// Session restricts the comparison to one session label; empty
	// compares everything.
	Session string
}

// Divergence names the first place two flight logs disagree on one
// peer's track: either the events at Index differ, or one side's track
// ends early (the missing side's event is nil).
type Divergence struct {
	LabelA, LabelB string
	Session        string
	Peer           int
	// Index is the position in the peer's (filtered) track where the
	// logs first disagree.
	Index int
	// A and B are the disagreeing events; nil means that side's track
	// ended before Index.
	A, B *Event
}

// String renders the divergence report: peer, event identities, and
// both sides' timestamps (virtual time for a simulated log, wall
// seconds for a live one).
func (d *Divergence) String() string {
	if d == nil {
		return "flight: logs agree"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "first divergence at peer %d", d.Peer)
	if d.Session != "" {
		fmt.Fprintf(&b, " (session %s)", d.Session)
	}
	fmt.Fprintf(&b, ", event %d:\n", d.Index)
	side := func(label string, e *Event) {
		if e == nil {
			fmt.Fprintf(&b, "  %-12s <track ended after %d events>\n", label+":", d.Index)
			return
		}
		fmt.Fprintf(&b, "  %-12s t=%.6f %s %s other=%d round=%d n=%d\n",
			label+":", e.T, e.Dir, e.Type, e.Other, e.Round, e.N)
	}
	side(d.LabelA, d.A)
	side(d.LabelB, d.B)
	return b.String()
}

// FirstDivergence aligns two flight logs per peer track and returns the
// first event where they disagree, or nil when every track matches.
// Events are compared by driver-independent identity (Dir, Type, Other,
// Round, N) — never by timestamp, since the sides run on different
// clocks (DES virtual time vs wall time) — and driver notes (DirDriver)
// are left out: they describe the run's environment, not a protocol
// decision. Tracks are scanned in
// (session, peer) order and the lowest diverging track wins, so the
// report is deterministic.
func FirstDivergence(a, b Log, opt DiffOptions) *Divergence {
	ta := tracks(a.Events, opt)
	tb := tracks(b.Events, opt)
	keys := make(map[trackKey]bool, len(ta)+len(tb))
	for k := range ta {
		keys[k] = true
	}
	for k := range tb {
		keys[k] = true
	}
	order := make([]trackKey, 0, len(keys))
	for k := range keys {
		order = append(order, k)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].session != order[j].session {
			return order[i].session < order[j].session
		}
		return order[i].peer < order[j].peer
	})
	for _, k := range order {
		ea, eb := ta[k], tb[k]
		n := len(ea)
		if len(eb) < n {
			n = len(eb)
		}
		for i := 0; i < n; i++ {
			if ea[i].Key() != eb[i].Key() {
				return &Divergence{
					LabelA: a.Label, LabelB: b.Label,
					Session: k.session, Peer: k.peer, Index: i,
					A: &ea[i], B: &eb[i],
				}
			}
		}
		if len(ea) != len(eb) {
			d := &Divergence{
				LabelA: a.Label, LabelB: b.Label,
				Session: k.session, Peer: k.peer, Index: n,
			}
			if len(ea) > n {
				d.A = &ea[n]
			}
			if len(eb) > n {
				d.B = &eb[n]
			}
			return d
		}
	}
	return nil
}

type trackKey struct {
	session string
	peer    int
}

// tracks splits a log into per-(session, peer) event tracks, applying
// the filter options and preserving each track's recorded order.
func tracks(events []Event, opt DiffOptions) map[trackKey][]Event {
	out := make(map[trackKey][]Event)
	for _, e := range events {
		if opt.Session != "" && e.Session != opt.Session {
			continue
		}
		if !opt.IncludeTimers && e.Dir == "ev" && strings.HasPrefix(e.Type, "timer_") {
			continue
		}
		if e.Dir == DirDriver {
			continue
		}
		k := trackKey{session: e.Session, peer: e.Peer}
		out[k] = append(out[k], e)
	}
	return out
}
