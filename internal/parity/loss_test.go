package parity

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"p2pmss/internal/seq"
)

// lossRig feeds a recoverer and its loss detector the way a leaf does:
// each arrival goes to the recoverer first, then to the detector with its
// sender and a fabricated receipt time. Nothing sleeps.
type lossRig struct {
	rec  *Recoverer
	det  *LossDetector
	lost []lostAt
}

// lostAt is one Arrive that reported losses: which, and at what time.
type lostAt struct {
	at   float64
	idxs []int64
}

func newLossRig(l, h, senders int, window float64) *lossRig {
	r := &lossRig{rec: NewSizedRecoverer(l), det: NewLossDetector(l)}
	r.det.Arm(h, senders, window)
	r.rec.OnData(r.det.Present)
	return r
}

func (r *lossRig) arrive(sender int, p seq.Packet, now float64) {
	r.rec.Add(p)
	if lost := r.det.Arrive(sender, &p, now, nil); len(lost) > 0 {
		r.lost = append(r.lost, lostAt{now, lost})
	}
}

// reported is every index the detector reported lost, in report order.
func (r *lossRig) reported() []int64 {
	var out []int64
	for _, l := range r.lost {
		out = append(out, l.idxs...)
	}
	return out
}

// arrival is one packet on one sender's link.
type arrival struct {
	sender int
	p      seq.Packet
}

// interleave is the order paced senders deliver Esq(1..l, h) divided
// round-robin among H of them: enhanced-sequence order, packet j from
// sender j mod H.
func interleave(l int64, h, H int) []arrival {
	var out []arrival
	for j, p := range Enhance(seq.Range(1, l), h) {
		out = append(out, arrival{j % H, p})
	}
	return out
}

// Per-link reordering inside the slack — each link holding a packet back
// until up to h+1 of its later packets have overtaken it — is not a gap:
// nothing is reported, and everything is present at the end.
func TestLossDetectorReorderWithinWindow(t *testing.T) {
	const l, h, H = 300, 2, 3
	in := interleave(l, h, H)
	// On every link, hold every fifth packet back behind the next h+1 of
	// the same link.
	var order []arrival
	held := map[int][]arrival{}
	seen := map[int]int{}
	overtaken := map[int]int{}
	for _, a := range in {
		s := a.sender
		seen[s]++
		if seen[s]%5 == 0 {
			held[s] = append(held[s], a)
			overtaken[s] = 0
			continue
		}
		order = append(order, a)
		if len(held[s]) > 0 {
			if overtaken[s]++; overtaken[s] == h+1 {
				order = append(order, held[s]...)
				held[s] = nil
			}
		}
	}
	for s := 0; s < H; s++ {
		order = append(order, held[s]...)
	}
	if len(order) != len(in) {
		t.Fatalf("rig lost packets: %d of %d", len(order), len(in))
	}
	r := newLossRig(l, h, H, 1)
	for i, a := range order {
		r.arrive(a.sender, a.p, float64(i)*1e-3)
	}
	if got := r.reported(); len(got) != 0 {
		t.Errorf("reordering within the window reported %v lost", got)
	}
	if !r.det.Complete() {
		t.Errorf("incomplete after reordered delivery: missing %v", r.det.Missing())
	}
}

// hold moves the first arrival matching key behind the next n arrivals of
// its own sender: a packet a link held back while n later ones overtook it.
func hold(in []arrival, key string, n int) []arrival {
	i := slices.IndexFunc(in, func(a arrival) bool { return a.p.Key() == key })
	held := in[i]
	out := append([]arrival{}, in[:i]...)
	rest := in[i+1:]
	for j, a := range rest {
		out = append(out, a)
		if a.sender == held.sender {
			if n--; n == 0 {
				out = append(out, held)
				return append(out, rest[j+1:]...)
			}
		}
	}
	return append(out, held)
}

// A link's reordering beyond the base slack is learned: once a parity
// packet has arrived that far behind its sender's stream, a data packet
// held back as far later in the session is not taken for a loss. Without
// the lesson it is (the control run).
func TestLossDetectorLearnsReorder(t *testing.T) {
	const l, h, H = 300, 2, 3
	in := interleave(l, h, H)
	// Two packets of one segment (parity cannot stand in) each about 14
	// positions late: past the base slack of 9.
	late := hold(hold(in, "t151", 7), "t152", 7)
	for _, learn := range []bool{false, true} {
		order := late
		if learn {
			order = hold(late, "p(t1,t2)", 10) // a parity about 20 positions late
		}
		r := newLossRig(l, h, H, 1)
		for i, a := range order {
			r.arrive(a.sender, a.p, float64(i)*1e-3)
		}
		got := r.reported()
		if learn && len(got) != 0 {
			t.Errorf("after a learned displacement, reported %v", got)
		}
		if !learn && !slices.Equal(got, []int64{151, 152}) {
			t.Errorf("control run reported %v, want [151 152]: the late packets do not test the slack", got)
		}
		if !r.det.Complete() {
			t.Errorf("learn=%v: incomplete, missing %v", learn, r.det.Missing())
		}
	}
}

// Two packets of one recovery segment dropped mid-stream: the detector
// names exactly those two indices, and names them mid-stream, once every
// sender has passed them by the slack. A single drop elsewhere is parity's
// to recover and is never named.
func TestLossDetectorNamesUnrecoverablePair(t *testing.T) {
	const l, h, H = 120, 2, 3
	r := newLossRig(l, h, H, 1)
	drop := map[string]bool{"t61": true, "t62": true, "t91": true}
	var at float64
	var passedAt float64 // when every sender had passed t62 by the slack
	frontier := make([]float64, H)
	for i, a := range interleave(l, h, H) {
		now := float64(i) * 1e-3
		frontier[a.sender] = a.p.Pos
		if passedAt == 0 && slices.Min(frontier) > 62+H*(h+1) {
			passedAt = now
		}
		if drop[a.p.Key()] {
			continue
		}
		r.arrive(a.sender, a.p, now)
		at = now
	}
	if len(r.lost) != 1 || !slices.Equal(r.lost[0].idxs, []int64{61, 62}) {
		t.Fatalf("reported %+v, want exactly [61 62] in one report", r.lost)
	}
	if r.lost[0].at != passedAt {
		t.Errorf("reported at %v, want %v: the first arrival past the slack", r.lost[0].at, passedAt)
	}
	if r.lost[0].at >= at {
		t.Error("the pair was only named at the end of the stream")
	}
	if got := r.det.Missing(); !slices.Equal(got, []int64{61, 62}) {
		t.Errorf("missing %v, want [61 62] (t91 is parity's)", got)
	}
}

// A sender first heard mid-stream behind the others — a hand-off child
// whose share starts at the mark its parent reached a moment ago — and
// which then falls further behind, holds the rule back: its own indices
// are never reported, however far the others run ahead.
func TestLossDetectorHandoffLag(t *testing.T) {
	const l = 240
	r := newLossRig(l, 1, 3, 1) // segments of one, a slack of 6
	// Data only, positions = indices. Until the mark (k < 61) sender 0
	// sends k ≡ 0, 2 (mod 3) and sender 1 k ≡ 1; from the mark on, sender
	// 2 takes over k ≡ 2. Senders 0 and 1 run at one position per tick;
	// sender 2 starts 4 positions late and runs at half speed.
	owner := func(k int64) int {
		switch {
		case k%3 == 1:
			return 1
		case k%3 == 2 && k >= 61:
			return 2
		}
		return 0
	}
	type ev struct {
		t float64
		a arrival
	}
	var evs []ev
	var child int
	for k := int64(1); k <= l; k++ {
		s := owner(k)
		tick := float64(k)
		if s == 2 {
			tick = 61 + 4 + 2*float64(child)
			child++
		}
		evs = append(evs, ev{tick, arrival{s, seq.NewData(k)}})
	}
	slices.SortStableFunc(evs, func(a, b ev) int { return cmp.Compare(a.t, b.t) })
	for _, e := range evs {
		r.arrive(e.a.sender, e.a.p, e.t*1e-3)
	}
	if got := r.reported(); len(got) != 0 {
		t.Errorf("a lagging hand-off child's indices were reported lost: %v", got)
	}
	if !r.det.Complete() {
		t.Errorf("incomplete: missing %v", r.det.Missing())
	}
}

// A sender that goes silent mid-stream holds the rule back for one
// window; the first arrival after that names its missing indices.
func TestLossDetectorSilentSenderAfterWindow(t *testing.T) {
	const l, h, H = 400, 4, 3
	const window = 0.05
	r := newLossRig(l, h, H, window)
	in := interleave(l, h, H)
	const crashAt = 0.1 // sender 2 is silent from here on
	var lastHeard float64
	for i, a := range in {
		now := float64(i) * 1e-3
		if a.sender == 2 && now >= crashAt {
			continue
		}
		if a.sender == 2 {
			lastHeard = now
		}
		r.arrive(a.sender, a.p, now)
	}
	if len(r.lost) == 0 {
		t.Fatal("a silent sender's share was never reported")
	}
	first := r.lost[0]
	if first.at <= lastHeard+window {
		t.Errorf("first report at %v, within the window of the last arrival from the silent sender (%v)", first.at, lastHeard)
	}
	if first.at > lastHeard+window+2e-3 {
		t.Errorf("first report at %v, want the first arrival after %v", first.at, lastHeard+window)
	}
	// Everything reported was the silent sender's, and parity could not
	// bring it back: h+1 = 5 > H, so a segment missing one sender's
	// packets misses two of them.
	sent2 := map[int64]bool{}
	for _, a := range in {
		if a.sender == 2 && a.p.IsData() {
			sent2[a.p.Index] = true
		}
	}
	for _, k := range r.reported() {
		if !sent2[k] {
			t.Errorf("t%d reported lost but was not the silent sender's", k)
		}
		if r.rec.HasData(k) {
			t.Errorf("t%d reported lost but present", k)
		}
	}
}

// feedTail streams Esq(1..l, h) round-robin from H senders, one packet
// a millisecond, leaving out the packets drop selects; it returns the
// time of the last arrival.
func (r *lossRig) feedTail(l int64, h, H int, drop func(arrival) bool) float64 {
	var last float64
	for i, a := range interleave(l, h, H) {
		if drop(a) {
			continue
		}
		last = float64(i) * 1e-3
		r.arrive(a.sender, a.p, last)
	}
	return last
}

// A loss in the stream's tail is past every sender's last position: the
// gap rule can never prove it. Once every sender has reached the end, a
// Tail round asks for it as soon as nothing has arrived for the grace —
// a few packet times, not a window — and its reply, from a peer that
// never streamed, fills the gap without being taken for a sender's
// stream.
func TestLossDetectorTailRound(t *testing.T) {
	const l, h, H = 60, 2, 3
	const window = 1.0
	r := newLossRig(l, h, H, window)
	last := r.feedTail(l, h, H, func(a arrival) bool { return a.p.IsData() && a.p.Index >= 59 })
	if got := r.reported(); len(got) != 0 {
		t.Fatalf("the gap rule reported %v; a tail loss is beyond it", got)
	}
	missing := r.det.Missing()
	if !slices.Equal(missing, []int64{59, 60}) {
		t.Fatalf("missing %v, want [59 60]", missing)
	}
	due := r.det.TailDue()
	if due <= last || due > last+0.02 {
		t.Fatalf("tail round due %v after the last arrival, want within a few packet times (0, 0.02]", due-last)
	}
	if _, ok := r.det.Tail(due - 1e-6); ok {
		t.Fatal("a tail round before the grace ran out")
	}
	round, ok := r.det.Tail(due)
	if !ok || !slices.Equal(round.Missing, missing) || round.Retry {
		t.Fatalf("tail round %+v (ok=%v), want one asking for %v, no retry", round, ok, missing)
	}
	if _, ok := r.det.Stall(due); ok {
		t.Error("a stall round right after the tail round")
	}
	for _, k := range missing {
		r.arrive(7, seq.NewData(k), due+1e-3)
	}
	if !r.det.Complete() {
		t.Fatalf("repair replies did not complete the content: missing %v", r.det.Missing())
	}
	if s := r.det.Senders(); len(s) > 7 && s[7].Heard() {
		t.Error("a repair reply made its sender part of the stream")
	}
	if due := r.det.TailDue(); !math.IsInf(due, 1) {
		t.Errorf("a complete content has a tail round due at %v", due)
	}
}

// Senders that finish at different times — two of them streaming their
// shares ten times faster than the third, so they are done long before
// it, with silences between its packets longer than the grace — report
// nothing on a clean run: the stream has not ended while a sender heard
// within the window is still short of the end, and no Tail round is due
// before the next packet arrives. (Ending the stream when the first
// sender reaches the end would ask for the slow sender's share.)
func TestLossDetectorStaggeredFinishNoTail(t *testing.T) {
	const l, h, H = 120, 4, 3 // h+1 > H: parity cannot stand in for the slow sender
	r := newLossRig(l, h, H, 1)
	type ev struct {
		t float64
		a arrival
	}
	var evs []ev
	n := make([]int, H)
	for _, a := range interleave(l, h, H) {
		step := 1e-3
		if a.sender == 2 {
			step = 10e-3
		}
		evs = append(evs, ev{float64(n[a.sender]) * step, a})
		n[a.sender]++
	}
	slices.SortStableFunc(evs, func(a, b ev) int { return cmp.Compare(a.t, b.t) })
	for _, e := range evs {
		if round, ok := r.det.Tail(e.t); ok {
			t.Fatalf("tail round at %v, before an arrival of the stream: %+v", e.t, round)
		}
		r.arrive(e.a.sender, e.a.p, e.t)
	}
	if len(r.lost) != 0 || !r.det.Complete() {
		t.Fatalf("clean run: reported %v, missing %v", r.reported(), r.det.Missing())
	}
	if _, ok := r.det.Tail(evs[len(evs)-1].t + 1); ok {
		t.Error("tail round on a complete content")
	}
}

// A repair reply lost at the tail is asked for again well before a
// window: the leaf is only waiting for replies once the stream has
// ended. Each round without a data gain doubles the wait, and once it
// would reach a window the stall round takes over.
func TestLossDetectorTailReask(t *testing.T) {
	const l, h, H = 60, 2, 3
	const window = 1.0
	r := newLossRig(l, h, H, window)
	for s := 0; s < H; s++ {
		r.det.Expect(s, -0.005) // the requests went out 5 ms before the first packet
	}
	// Two whole segments' data: a reply for t57 recovers t58 and leaves
	// t59 and t60 missing.
	r.feedTail(l, h, H, func(a arrival) bool { return a.p.IsData() && a.p.Index >= 57 })
	first := r.det.TailDue()
	if _, ok := r.det.Tail(first); !ok {
		t.Fatal("no tail round")
	}
	at, prev, waits := first, 0.0, 0
	for {
		due := r.det.TailDue()
		if math.IsInf(due, 1) {
			break
		}
		wait := due - at
		if waits == 0 && wait > window/8 {
			t.Fatalf("first re-ask %v after the round, want well before a window (%v)", wait, window)
		}
		if waits > 0 && math.Abs(wait-2*prev) > 1e-9 {
			t.Fatalf("re-ask wait %v after %v, want it doubled", wait, prev)
		}
		round, ok := r.det.Tail(due)
		if !ok || !round.Retry || !slices.Equal(round.Missing, []int64{57, 58, 59, 60}) {
			t.Fatalf("re-ask at %v: %+v ok=%v, want a retry of t57..t60", due, round, ok)
		}
		at, prev = due, wait
		waits++
	}
	if waits < 2 || 2*prev < window {
		t.Fatalf("%d re-asks, the last wait %v: want them to back off until a window", waits, prev)
	}
	if _, ok := r.det.Stall(at + window - 1e-6); ok {
		t.Error("a stall round within a window of the last re-ask")
	}
	if round, ok := r.det.Stall(at + window); !ok || !round.Retry {
		t.Errorf("stall round a window after the last re-ask: %+v ok=%v", round, ok)
	}
	// A reply is a gain: the next wait starts from the grace again.
	r.arrive(7, seq.NewData(57), at+window+1e-3)
	if got := r.det.Missing(); !slices.Equal(got, []int64{59, 60}) {
		t.Fatalf("after the reply: missing %v, want [59 60]", got)
	}
	if wait := r.det.TailDue() - (at + window + 1e-3); wait > window/8 {
		t.Errorf("after a gain the next round waits %v, want the grace", wait)
	}
}

// A sender whose last packets were lost has not reached the end, and
// while it is heard within the window the stream has not ended: no Tail
// round is due, and its losses fall back to the stall round a window
// after the last data gain.
func TestLossDetectorTailLostLastPackets(t *testing.T) {
	const l, h, H = 60, 4, 3 // h+1 > H: a segment holds two of a sender's packets
	const window = 0.2
	r := newLossRig(l, h, H, window)
	var lastGain float64
	for i, a := range interleave(l, h, H) {
		if a.sender == 2 && a.p.Pos > l/2 {
			continue // sender 2's last dozen packets, past any end slack
		}
		now := float64(i) * 1e-3
		have := r.det.Have()
		r.arrive(a.sender, a.p, now)
		if r.det.Have() > have {
			lastGain = now
		}
	}
	if r.det.Complete() {
		t.Fatal("the dropped packets were recovered: the run tests nothing")
	}
	if due := r.det.TailDue(); !math.IsInf(due, 1) {
		t.Fatalf("tail round due at %v with sender 2 short of the end", due)
	}
	if _, ok := r.det.Stall(lastGain + window - 1e-6); ok {
		t.Fatal("stall round within a window of the last gain")
	}
	round, ok := r.det.Stall(lastGain + window)
	if !ok || !slices.Equal(round.Missing, r.det.Missing()) {
		t.Errorf("stall round %+v ok=%v, want every missing index", round, ok)
	}
}

// An expected sender not yet heard holds the rule back until its window
// runs out.
func TestLossDetectorExpectedSender(t *testing.T) {
	const l = 100
	r := newLossRig(l, 2, 1, 0.05) // a slack of 3
	r.det.Expect(1, 0)
	for k := int64(1); k <= 40; k += 2 { // sender 0 has the odd indices
		r.arrive(0, seq.NewData(k), float64(k)*1e-3)
	}
	if len(r.lost) != 0 {
		t.Fatalf("reported %v while sender 1 was expected", r.reported())
	}
	r.arrive(0, seq.NewData(41), 0.06)
	if got := r.reported(); !slices.Equal(got, []int64{2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32, 34, 36}) {
		t.Errorf("after the window: reported %v", got)
	}
}

// The missing set lists exactly the absent indices, in order, however
// the present ones arrived.
func TestLossDetectorMissingSet(t *testing.T) {
	d := NewLossDetector(10)
	for _, k := range []int64{3, 1, 10, 4, 4, 0, 11, 7} {
		d.Present(k)
	}
	if got := d.Missing(); !slices.Equal(got, []int64{2, 5, 6, 8, 9}) {
		t.Errorf("missing %v", got)
	}
	if d.Have() != 5 || d.Complete() {
		t.Errorf("have %d complete %v", d.Have(), d.Complete())
	}
	for _, k := range []int64{2, 5, 6, 8, 9} {
		d.Present(k)
	}
	if got := d.Missing(); len(got) != 0 || !d.Complete() {
		t.Errorf("missing %v after all present", got)
	}
}

// Before its first packet a leaf is not stalled for quietStart windows
// from its first Expect: coordination is still in flight. A leaf that
// never hears anything still falls through to a round then, and backs
// off a window between rounds. An unarmed detector never stalls.
func TestLossDetectorStallQuietStart(t *testing.T) {
	d := NewLossDetector(100)
	d.Expect(0, 10)
	if _, ok := d.Stall(50); ok {
		t.Fatal("an unarmed detector stalled")
	}
	d = NewLossDetector(100)
	d.Arm(2, 3, 1)
	d.Expect(0, 10)
	d.Expect(1, 10.5)
	for _, now := range []float64{11, 12, 13, 13.99} {
		if r, ok := d.Stall(now); ok {
			t.Fatalf("stalled at %v, %v after the first Expect: %+v", now, now-10, r)
		}
	}
	r, ok := d.Stall(14)
	if !ok || len(r.Missing) != 100 || r.StalledFor != 4 || r.Retry {
		t.Fatalf("at 4 windows: round %+v ok=%v, want all 100 missing, stalled for 4, no retry", r, ok)
	}
	if _, ok := d.Stall(14.99); ok {
		t.Error("a second round inside the back-off window")
	}
	if r, ok := d.Stall(15); !ok || !r.Retry || r.StalledFor != 1 {
		t.Errorf("one window after the round: %+v ok=%v, want a retry stalled for 1", r, ok)
	}
}

// Once packets flow, the leaf is stalled after one window in which no
// data index became present: a parity packet that recovers nothing is
// not progress, a repair reply is. A round backs off a window and
// reports whether its leading index was asked for before.
func TestLossDetectorStallAfterWindow(t *testing.T) {
	const l, h = 60, 2
	r := newLossRig(l, h, 3, 1)
	r.det.Expect(0, 0)
	esq := Enhance(seq.Range(1, l), h)
	r.arrive(0, esq[0], 0.5) // t1
	r.arrive(0, esq[1], 0.6) // t2
	if _, ok := r.det.Stall(1.59); ok {
		t.Fatal("stalled within a window of the last data gain")
	}
	// p(t1,t2) completes no segment: not a gain.
	r.arrive(0, esq[2], 1.2)
	round, ok := r.det.Stall(1.6)
	if !ok || round.StalledFor != 1 || round.Retry || round.Missing[0] != 3 || len(round.Missing) != l-2 {
		t.Fatalf("round %+v ok=%v, want t3..t%d stalled for 1, no retry", round, ok, l)
	}
	// A repair reply is a gain: it restarts the window.
	r.arrive(5, seq.NewData(3), 2.1)
	if _, ok := r.det.Stall(3.09); ok {
		t.Error("stalled within a window of a repair reply")
	}
	round, ok = r.det.Stall(3.1)
	if !ok || round.Missing[0] != 4 || !round.Retry {
		t.Errorf("round %+v ok=%v, want a retry starting at t4", round, ok)
	}
	if len(r.lost) != 0 {
		t.Errorf("the gap rule reported %v", r.reported())
	}
}

// Targets lists the ids below n most recently heard first and the
// never-heard ones (an expected sender included) after them in seeded
// random order; a sender at n or above is not listed. It draws from the
// RNG exactly what one Shuffle of n does.
func TestLossDetectorTargets(t *testing.T) {
	d := NewLossDetector(100)
	d.Expect(5, 0)
	for i, s := range []int{2, 0, 7, 4} { // heard at 1, 2, 3, 4
		p := seq.NewData(int64(10 + i))
		d.Arrive(s, &p, float64(i+1), nil)
	}
	const n = 6
	tails := map[string]bool{}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got := d.Targets(n, rng)
		if len(got) != n || !slices.Equal(got[:3], []int{4, 0, 2}) {
			t.Fatalf("seed %d: targets %v, want [4 0 2] first, then 1, 3, 5 in some order", seed, got)
		}
		tail := slices.Clone(got[3:])
		tails[fmt.Sprint(tail)] = true
		if slices.Sort(tail); !slices.Equal(tail, []int{1, 3, 5}) {
			t.Fatalf("seed %d: targets %v, want 1, 3, 5 last", seed, got)
		}
		if again := d.Targets(n, rand.New(rand.NewSource(seed))); !slices.Equal(again, got) {
			t.Fatalf("seed %d: %v then %v", seed, got, again)
		}
		ref := rand.New(rand.NewSource(seed))
		ref.Shuffle(n, func(i, j int) {})
		if rng.Int63() != ref.Int63() {
			t.Fatalf("seed %d: Targets drew other than one Shuffle of %d", seed, n)
		}
	}
	if len(tails) < 2 {
		t.Errorf("never-heard ids came in one order over 20 seeds: %v", tails)
	}
}
