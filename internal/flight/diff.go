package flight

import (
	"fmt"
	"math"
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
// earliest event where they disagree, or nil when every track matches.
// Events are compared by driver-independent identity (Dir, Type, Other,
// Round, N) — never by timestamp, since the sides run on different
// clocks (DES virtual time vs wall time) — and driver notes (DirDriver)
// are left out: they describe the run's environment, not a protocol
// decision. Each track's first mismatch is placed in the first log's
// time: the time of a's event there, or of a's last event on the track
// when a's track ended first (+Inf when a has none). The earliest wins,
// ties going to the lowest (session, peer), so the report is
// deterministic and names where the runs parted, not the lowest peer
// that noticed.
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
	var first *Divergence
	firstT := math.Inf(1)
	for k := range keys {
		ea, eb := ta[k], tb[k]
		i := 0
		for i < len(ea) && i < len(eb) && ea[i].Key() == eb[i].Key() {
			i++
		}
		if i == len(ea) && i == len(eb) {
			continue
		}
		d := &Divergence{
			LabelA: a.Label, LabelB: b.Label,
			Session: k.session, Peer: k.peer, Index: i,
		}
		t := math.Inf(1)
		if i < len(ea) {
			d.A, t = &ea[i], ea[i].T
		} else if i > 0 {
			t = ea[i-1].T
		}
		if i < len(eb) {
			d.B = &eb[i]
		}
		if first == nil || t < firstT || t == firstT && k.less(trackKey{first.Session, first.Peer}) {
			first, firstT = d, t
		}
	}
	return first
}

type trackKey struct {
	session string
	peer    int
}

func (k trackKey) less(o trackKey) bool {
	if k.session != o.session {
		return k.session < o.session
	}
	return k.peer < o.peer
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
