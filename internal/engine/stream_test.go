package engine_test

import (
	"math/rand"
	"reflect"
	"testing"

	"p2pmss/internal/engine"
	"p2pmss/internal/parity"
	"p2pmss/internal/seq"
)

// refSwitch is the hand-off switch by definition, the reference the
// Stream is held to: the unsent remainder minus every packet whose
// identity key a child was given, unioned with the parent's own share.
func refSwitch(rem seq.Sequence, given []seq.Sequence, keep seq.Sequence) seq.Sequence {
	gone := make(map[string]bool)
	for _, g := range given {
		for _, p := range g {
			gone[p.Key()] = true
		}
	}
	var rest seq.Sequence
	for _, p := range rem {
		if !gone[p.Key()] {
			rest = append(rest, p)
		}
	}
	return seq.Union(rest, keep)
}

// remainder is what a stream has left to send.
func remainder(st *engine.Stream) seq.Sequence {
	snap := st.Snapshot()
	return snap.Seq()[snap.Offset:]
}

// handoff plans a hand-off of st's stream at mark into k parts with
// parity interval p (0: a join's plain split), the way the engine
// shares out, and returns the parts.
func handoff(st *engine.Stream, mark, p, k int) (keep seq.Sequence, given []seq.Sequence) {
	snap := st.Snapshot()
	parts, rate := engine.ShareOut(snap.Seq(), mark, snap.Rate, p, k)
	keep, given = engine.SplitParts(parts)
	st.Apply(&engine.Handoff{Keep: keep, Given: given, OldRate: snap.Rate, NewRate: rate, Mark: mark})
	return keep, given
}

// Chains of hand-offs with random shapes — re-enhancement at every
// level (parity over parity), plain join splits, redundant merges and
// re-absorbed shares between plan and switch — switch to exactly what
// the key-based reference computes, packet for packet.
func TestStreamSwitchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	switches, merged, absorbed := 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		l := int64(20 + rng.Intn(400))
		content := seq.Range(1, l)
		// Another parent's share of the same content, enhanced on its own
		// interval: merging it brings parities whose identity can recur
		// at another position.
		other := seq.Div(parity.Enhance(content, 1+rng.Intn(4)), 3, rng.Intn(3))
		var st engine.Stream
		st.Install(parity.Enhance(content, 1+rng.Intn(4)), 10)
		for round := 0; round < 8 && st.More(); round++ {
			for n := rng.Intn(12); n > 0; n-- {
				st.Next()
			}
			mark := st.Snapshot().Offset + rng.Intn(10)
			keep, given := handoff(&st, mark, rng.Intn(4), 2+rng.Intn(4))
			if rng.Intn(2) == 0 {
				st.Merge(seq.Div(other, 4, rng.Intn(4)), 1)
				merged++
			}
			if len(given) > 0 && rng.Intn(3) == 0 {
				back := given[rng.Intn(len(given))]
				st.Apply(&engine.Absorb{Seq: back, RateDelta: 1})
				keep = seq.Union(keep, back)
				absorbed++
			}
			for n := rng.Intn(6); n > 0; n-- {
				st.Next()
			}
			want := refSwitch(remainder(&st), given, keep)
			st.Switch()
			got := st.Snapshot()
			if got.Offset != 0 || got.Pending || !reflect.DeepEqual(got.Seq(), want) {
				t.Fatalf("trial %d round %d: switched to %d packets at offset %d, want the reference's %d:\n got %v\nwant %v",
					trial, round, len(got.Seq()), got.Offset, len(want), got.Seq(), want)
			}
			switches++
		}
	}
	t.Logf("%d switches, %d with a merge and %d with an absorb before them", switches, merged, absorbed)
}

// The switch's rate is rate − old + new, and new alone when that is not
// positive.
func TestStreamSwitchRate(t *testing.T) {
	cases := []struct {
		rate, old, new, want float64
	}{
		{rate: 10, old: 10, new: 4, want: 4},   // a plain hand-off
		{rate: 13, old: 10, new: 4, want: 7},   // a merge since the plan added 3
		{rate: 10, old: 12, new: 2, want: 2},   // rate − old + new = 0: new
		{rate: 5, old: 12, new: 2, want: 2},    // negative: new
		{rate: 10, old: 10, new: 10, want: 10}, // a share's worth of nothing
	}
	for _, c := range cases {
		var st engine.Stream
		st.Install(seq.Range(1, 10), c.rate)
		st.Apply(&engine.Handoff{OldRate: c.old, NewRate: c.new, Mark: 3})
		st.Switch()
		if got := st.Rate(); got != c.want {
			t.Errorf("rate %v − old %v + new %v switched to %v, want %v", c.rate, c.old, c.new, got, c.want)
		}
	}
}

// An Absorb folds into the planned switch — its share joins Keep and
// its rate the new rate — and merges into the unsent remainder when no
// switch is planned: before any plan, or after the switch.
func TestStreamAbsorb(t *testing.T) {
	stream := seq.Range(1, 30)
	back := seq.FromIndices(40, 41, 42)
	cases := []struct {
		name     string
		plan     bool // a hand-off of t21..t30 at mark 20
		switched bool // and its switch applied before the absorb
		replaced bool // Apply reports a new sequence
		want     seq.Sequence
		rate     float64
	}{
		{name: "no plan", replaced: true, want: seq.Union(stream[5:], back), rate: 12},
		{name: "before the switch", plan: true, want: seq.Union(stream[5:20], back), rate: 6},
		{name: "after the switch", plan: true, switched: true, replaced: true, want: seq.Union(stream[5:20], back), rate: 6},
	}
	for _, c := range cases {
		var st engine.Stream
		st.Install(stream, 10)
		for i := 0; i < 5; i++ {
			st.Next()
		}
		if c.plan && st.Apply(&engine.Handoff{Given: []seq.Sequence{stream[20:]}, OldRate: 10, NewRate: 4, Mark: 20}) {
			t.Errorf("%s: a first plan reported a switch", c.name)
		}
		if c.switched {
			st.Switch()
		}
		if got := st.Apply(&engine.Absorb{Seq: back, RateDelta: 2}); got != c.replaced {
			t.Errorf("%s: Apply(Absorb) replaced the sequence: %v, want %v", c.name, got, c.replaced)
		}
		st.Switch()
		if got := remainder(&st); !seq.Equal(got, c.want) || st.Rate() != c.rate {
			t.Errorf("%s: left %v at rate %v, want %v at rate %v", c.name, got, st.Rate(), c.want, c.rate)
		}
	}
}

// In control-plane-only mode — a nil sequence — a merge of nothing
// moves the rate alone, as an absorb with no switch planned does, and a
// planned switch moves the rate alone, absorbed rates included.
func TestStreamNilSequenceMovesRatesOnly(t *testing.T) {
	var st engine.Stream
	st.Install(nil, 4)
	st.Merge(nil, 3)
	if snap := st.Snapshot(); snap.Seq() != nil || snap.Rate != 7 {
		t.Fatalf("after a nil merge: %d packets at rate %v, want a nil stream at rate 7", len(snap.Seq()), snap.Rate)
	}
	if !st.Apply(&engine.Absorb{RateDelta: 1}) {
		t.Error("an absorb with no plan did not report the rate change")
	}
	if snap := st.Snapshot(); snap.Seq() != nil || snap.Rate != 8 {
		t.Fatalf("after an absorb with no plan: %d packets at rate %v, want a nil stream at rate 8", len(snap.Seq()), snap.Rate)
	}
	st.Apply(&engine.Handoff{OldRate: 8, NewRate: 1.5, Mark: 7})
	if !st.Snapshot().Pending {
		t.Fatal("the hand-off planned no switch")
	}
	st.Apply(&engine.Absorb{RateDelta: 0.5})
	if !st.Switch() {
		t.Error("the planned switch was not applied")
	}
	if snap := st.Snapshot(); snap.Seq() != nil || snap.Pending || snap.Rate != 2 {
		t.Errorf("after the switch: %d packets at rate %v (pending %v), want a nil stream at rate 2, nothing planned", len(snap.Seq()), snap.Rate, snap.Pending)
	}
	if st.Switch() {
		t.Error("a switch applied with nothing planned")
	}
}

// The switch is due when the next packet reaches the marked packet's
// position — wherever a merge since the plan has moved it in the
// sequence — or when the sequence has run out.
func TestStreamDue(t *testing.T) {
	stream := seq.Range(1, 20)
	cases := []struct {
		name  string
		mark  int
		merge seq.Sequence // merged after two packets are sent
		sends int          // packets sent before the switch is due
	}{
		{name: "at the mark", mark: 8, sends: 8},
		{name: "mark at the start", mark: 0, sends: 0},
		{name: "merge before the mark", mark: 8, merge: seq.FromIndices(3, 5, 30), sends: 8},
		{name: "mark past the end", mark: 120, sends: 20},
		{name: "mark past the end, merge", mark: 120, merge: seq.FromIndices(30), sends: 21},
	}
	for _, c := range cases {
		var st engine.Stream
		st.Install(stream, 10)
		st.Apply(&engine.Handoff{OldRate: 10, NewRate: 5, Mark: c.mark})
		sent := 0
		for !st.Due() {
			if sent == 2 && c.merge != nil {
				st.Merge(c.merge, 1)
			}
			if _, ok := st.Next(); !ok {
				t.Fatalf("%s: the sequence ran out and the switch is not due", c.name)
			}
			sent++
		}
		if sent != c.sends {
			t.Errorf("%s: due after %d packets, want %d", c.name, sent, c.sends)
		}
	}
}

// A hand-off planned while another switch is still planned applies the
// older one first, at once, and says so; the newer one waits for its own
// switch.
func TestStreamSecondPlanAppliesTheFirst(t *testing.T) {
	var st engine.Stream
	st.Install(seq.Range(1, 40), 10)
	keep1, given1 := handoff(&st, 10, 2, 2)
	want := refSwitch(seq.Range(1, 40), given1, keep1)
	// The second hand-off marks t6 of the sequence both were planned on.
	snap := st.Snapshot()
	markPos := snap.Seq()[5].Pos
	parts, rate := engine.ShareOut(snap.Seq(), 5, snap.Rate, 0, 2)
	keep2, given2 := engine.SplitParts(parts)
	if !st.Apply(&engine.Handoff{Keep: keep2, Given: given2, OldRate: snap.Rate, NewRate: rate, Mark: 5}) {
		t.Error("the second plan did not report the first switch")
	}
	if got := st.Snapshot(); !got.Pending || !seq.Equal(got.Seq(), want) {
		t.Fatalf("the second plan left %d packets (pending %v), want the first switch's %d", len(got.Seq()), got.Pending, len(want))
	}
	for !st.Due() {
		st.Next()
	}
	if next := remainder(&st)[0]; next.Pos != markPos {
		t.Errorf("the second switch is due at %v, want its own mark t6", next)
	}
	want = refSwitch(remainder(&st), given2, keep2)
	st.Switch()
	if got := st.Snapshot(); got.Pending || !seq.Equal(got.Seq(), want) {
		t.Errorf("the second switch left %d packets (pending %v), want %d", len(got.Seq()), got.Pending, len(want))
	}
}

// Next walks the sequence once; Rewind starts it over.
func TestStreamNextRewind(t *testing.T) {
	var st engine.Stream
	st.Install(seq.Range(1, 3), 1)
	var sent []int64
	for pkt, ok := st.Next(); ok; pkt, ok = st.Next() {
		sent = append(sent, pkt.Index)
	}
	if !reflect.DeepEqual(sent, []int64{1, 2, 3}) || st.More() {
		t.Fatalf("sent %v with more left, want [1 2 3] and none", sent)
	}
	st.Rewind()
	if pkt, ok := st.Next(); !ok || pkt.Index != 1 || st.Snapshot().Offset != 1 || !st.More() {
		t.Errorf("after Rewind: %v (ok %v) at offset %d, want t1 at 1 and more left", pkt, ok, st.Snapshot().Offset)
	}
}

// Data indices from a malformed remote share can be far apart; the
// switch still subtracts them exactly, without a bitset over the gap.
func TestStreamSwitchSparseIndices(t *testing.T) {
	stream := seq.FromIndices(1, 2, 3, 1<<40, 1<<62)
	given := []seq.Sequence{seq.FromIndices(2, 1<<62)}
	var st engine.Stream
	st.Install(stream, 4)
	st.Apply(&engine.Handoff{Given: given, OldRate: 4, NewRate: 2, Mark: 1})
	st.Switch()
	if got, want := remainder(&st), refSwitch(stream, given, nil); !reflect.DeepEqual(got, want) {
		t.Errorf("switched to %v, want %v", got, want)
	}
}
