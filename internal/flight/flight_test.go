package flight

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestRecorderRingEviction(t *testing.T) {
	r := NewRecorder("", 3, 4)
	for i := 0; i < 10; i++ {
		r.Record(Event{T: float64(i), Dir: "ev", Type: fmt.Sprintf("e%d", i)})
	}
	events := r.Events()
	if len(events) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(events))
	}
	// Oldest-first, only the newest 4 survive, with monotonic seq.
	for i, e := range events {
		if want := fmt.Sprintf("e%d", 6+i); e.Type != want {
			t.Errorf("event %d is %q, want %q", i, e.Type, want)
		}
		if e.Peer != 3 {
			t.Errorf("event %d stamped peer %d, want 3", i, e.Peer)
		}
		if i > 0 && events[i].Seq != events[i-1].Seq+1 {
			t.Errorf("seq not monotonic: %d after %d", events[i].Seq, events[i-1].Seq)
		}
	}
	if got := r.Evicted(); got != 6 {
		t.Errorf("Evicted() = %d, want 6", got)
	}
}

func TestNilRecorderAndSetAreNoOps(t *testing.T) {
	var r *Recorder
	r.Record(Event{Type: "x"}) // must not panic
	if r.Events() != nil || r.Evicted() != 0 || r.Peer() != 0 {
		t.Error("nil recorder leaked state")
	}
	var s *Set
	if s.Recorder("sess", 1) != nil {
		t.Error("nil set handed out a live recorder")
	}
	if s.Events() != nil || s.Evicted() != 0 {
		t.Error("nil set leaked state")
	}
	if err := s.DumpJSONL(&bytes.Buffer{}); err != nil {
		t.Errorf("nil set dump: %v", err)
	}
}

func TestSetEventsDeterministicOrder(t *testing.T) {
	s := NewSet(8)
	// Record interleaved across sessions and peers.
	s.Recorder("b", 1).Record(Event{T: 3, Dir: "ev", Type: "x"})
	s.Recorder("a", 2).Record(Event{T: 1, Dir: "ev", Type: "y"})
	s.Recorder("a", 0).Record(Event{T: 2, Dir: "ev", Type: "z"})
	s.Recorder("a", 0).Record(Event{T: 4, Dir: "eff", Type: "w"})
	events := s.Events()
	var got []string
	for _, e := range events {
		got = append(got, fmt.Sprintf("%s/%d/%s", e.Session, e.Peer, e.Type))
	}
	want := []string{"a/0/z", "a/0/w", "a/2/y", "b/1/x"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("order %v, want %v", got, want)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	s := NewSet(8)
	s.Recorder("s1", 0).Record(Event{T: 0.5, Dir: "ev", Type: "request", Other: -2, N: 3})
	s.Recorder("s1", 1).Record(Event{T: 1.25, Dir: "eff", Type: "send_control", Other: 4, Round: 2})
	var buf bytes.Buffer
	if err := s.DumpJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig := s.Events()
	if len(back) != len(orig) {
		t.Fatalf("round-trip read %d events, want %d", len(back), len(orig))
	}
	for i := range orig {
		if back[i] != orig[i] {
			t.Errorf("event %d round-tripped to %+v, want %+v", i, back[i], orig[i])
		}
	}
}

func TestReadJSONLRejectsGarbageWithLineNumber(t *testing.T) {
	in := strings.NewReader("{\"peer\":1,\"dir\":\"ev\",\"type\":\"x\"}\n\nnot json\n")
	_, err := ReadJSONL(in)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("err = %v, want a line-3 parse error", err)
	}
}

func TestSummarize(t *testing.T) {
	events := []Event{
		{Peer: 0, T: 1, Dir: "ev", Type: "control"},
		{Peer: 0, T: 5, Dir: "ev", Type: "control"},
		{Peer: 0, T: 2, Dir: "eff", Type: "send_confirm_ok"},
		{Peer: 1, T: 3, Dir: "ev", Type: "control"},
	}
	sums := Summarize(events)
	if len(sums) != 3 {
		t.Fatalf("got %d groups, want 3", len(sums))
	}
	// Sorted by (session, peer, dir, type): "eff" < "ev" lexically.
	if sums[0].Type != "send_confirm_ok" || sums[1].Type != "control" || sums[2].Peer != 1 {
		t.Fatalf("group order %+v", sums)
	}
	ctl := sums[1]
	if ctl.Count != 2 || ctl.First != 1 || ctl.Last != 5 {
		t.Errorf("control group count=%d first=%v last=%v, want 2/1/5", ctl.Count, ctl.First, ctl.Last)
	}
}

// ev builds a minimal diff-comparable event.
func ev(peer int, dir, typ string, other, round, n int) Event {
	return Event{Peer: peer, Dir: dir, Type: typ, Other: other, Round: round, N: n}
}

func TestFirstDivergenceAgreement(t *testing.T) {
	a := []Event{ev(0, "ev", "request", -2, 0, 3), ev(0, "eff", "send_control", 1, 1, 2)}
	b := []Event{
		{Peer: 0, T: 99, Dir: "ev", Type: "request", Other: -2, N: 3}, // timestamps differ — irrelevant
		{Peer: 0, T: 7, Dir: "eff", Type: "send_control", Other: 1, Round: 1, N: 2},
	}
	if d := FirstDivergence(Log{"a", a}, Log{"b", b}, DiffOptions{}); d != nil {
		t.Errorf("identical identities reported divergent:\n%s", d)
	}
}

func TestFirstDivergenceFindsLowestPeer(t *testing.T) {
	a := []Event{
		ev(1, "ev", "control", 0, 1, 2),
		ev(5, "ev", "control", 0, 1, 2),
	}
	b := []Event{
		ev(1, "ev", "control", 0, 1, 3), // diverges at peer 1 (N differs)
		ev(5, "ev", "confirm_ok", 0, 1, 2),
	}
	d := FirstDivergence(Log{"sim", a}, Log{"live", b}, DiffOptions{})
	if d == nil {
		t.Fatal("no divergence reported")
	}
	if d.Peer != 1 || d.Index != 0 {
		t.Errorf("divergence at peer %d event %d, want peer 1 event 0", d.Peer, d.Index)
	}
	if d.A == nil || d.B == nil || d.A.N != 2 || d.B.N != 3 {
		t.Errorf("divergence events %+v vs %+v", d.A, d.B)
	}
	for _, want := range []string{"peer 1", "sim", "live", "t="} {
		if !strings.Contains(d.String(), want) {
			t.Errorf("report %q missing %q", d.String(), want)
		}
	}
}

func TestFirstDivergenceTrackLengthMismatch(t *testing.T) {
	a := []Event{ev(2, "ev", "control", 0, 1, 1), ev(2, "eff", "activate", 0, 1, 0)}
	b := []Event{ev(2, "ev", "control", 0, 1, 1)}
	d := FirstDivergence(Log{"a", a}, Log{"b", b}, DiffOptions{})
	if d == nil {
		t.Fatal("no divergence for a longer track")
	}
	if d.Peer != 2 || d.Index != 1 || d.A == nil || d.B != nil {
		t.Errorf("got %+v, want peer 2 index 1 with only side A present", d)
	}
	if !strings.Contains(d.String(), "track ended") {
		t.Errorf("report %q should note the ended track", d.String())
	}
}

func TestFirstDivergenceFiltersDeliveredTimers(t *testing.T) {
	// The sim delivers every armed deadline; a live run's wall timers may
	// never fire. Delivered timer events must not count as divergence —
	// but SetTimer effects (the decision to arm) must.
	a := []Event{
		ev(0, "eff", "set_timer_confirm", 3, 1, 0),
		ev(0, "ev", "timer_confirm", 3, 1, 0),
		ev(0, "ev", "commit", 1, 1, 0),
	}
	b := []Event{
		ev(0, "eff", "set_timer_confirm", 3, 1, 0),
		ev(0, "ev", "commit", 1, 1, 0),
	}
	if d := FirstDivergence(Log{"sim", a}, Log{"live", b}, DiffOptions{}); d != nil {
		t.Errorf("delivered timer event counted as divergence:\n%s", d)
	}
	if d := FirstDivergence(Log{"sim", a}, Log{"live", b}, DiffOptions{IncludeTimers: true}); d == nil {
		t.Error("IncludeTimers did not surface the timer-delivery difference")
	}
	// A missing SetTimer effect is a real protocol difference.
	c := []Event{
		ev(0, "ev", "commit", 1, 1, 0),
	}
	if d := FirstDivergence(Log{"sim", a}, Log{"live", c}, DiffOptions{}); d == nil {
		t.Error("missing set_timer effect not reported")
	}
}

func TestFirstDivergenceSkipsDriverNotes(t *testing.T) {
	// Crash, rejoin and repair-request notes describe the recording
	// driver's environment; the other side has nothing to align them
	// with, not even a track for the leaf.
	a := []Event{
		ev(0, "ev", "control", 1, 1, 2),
		ev(0, DirDriver, "crash", 0, 0, 0),
		ev(0, "eff", "activate", 0, 1, 2),
		ev(-1, DirDriver, "repair_request", 3, 0, 64),
	}
	b := []Event{
		ev(0, "ev", "control", 1, 1, 2),
		ev(0, "eff", "activate", 0, 1, 2),
	}
	if d := FirstDivergence(Log{"sim", a}, Log{"live", b}, DiffOptions{IncludeTimers: true}); d != nil {
		t.Errorf("driver note counted as divergence:\n%s", d)
	}
}

func TestFirstDivergenceSessionFilter(t *testing.T) {
	a := []Event{
		{Session: "s1", Peer: 0, Dir: "ev", Type: "control"},
		{Session: "s2", Peer: 0, Dir: "ev", Type: "control"},
	}
	b := []Event{
		{Session: "s1", Peer: 0, Dir: "ev", Type: "control"},
		{Session: "s2", Peer: 0, Dir: "ev", Type: "confirm_no"},
	}
	if d := FirstDivergence(Log{"a", a}, Log{"b", b}, DiffOptions{Session: "s1"}); d != nil {
		t.Errorf("session filter leaked s2 divergence:\n%s", d)
	}
	d := FirstDivergence(Log{"a", a}, Log{"b", b}, DiffOptions{})
	if d == nil || d.Session != "s2" {
		t.Errorf("unfiltered diff = %+v, want s2 divergence", d)
	}
}
