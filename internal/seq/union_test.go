package seq

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// unionExceptStep is UnionExcept as it was before the walk: a
// step-by-step merge, one packet per step, written out here as the
// reference UnionExcept must match packet for packet.
func unionExceptStep(a, b Sequence, drop func(*Packet) bool) Sequence {
	out := make(Sequence, 0, len(a)+len(b))
	i, j := 0, 0
	for {
		for drop != nil && i < len(a) && drop(&a[i]) {
			i++
		}
		if i == len(a) && j == len(b) {
			return out
		}
		var p *Packet
		switch {
		case j == len(b):
			p = &a[i]
			i++
		case i == len(a):
			p = &b[j]
			j++
		case SameIdentity(&a[i], &b[j]):
			p = &a[i]
			i++
			j++
		case Less(&a[i], &b[j]):
			p = &a[i]
			i++
		default:
			p = &b[j]
			j++
		}
		if n := len(out); n == 0 || !SameIdentity(p, &out[n-1]) {
			out = append(out, *p)
		}
	}
}

// tagged gives every packet of s a one-byte payload of its own, so a
// result shows which operand each surviving packet came from.
func tagged(s Sequence, tag byte) Sequence {
	out := make(Sequence, len(s))
	buf := make([]byte, len(s))
	for i, p := range s {
		buf[i] = tag
		p.Payload = buf[i : i+1 : i+1]
		out[i] = p
	}
	return out
}

// samePackets fails t unless got and want hold the same packets in the
// same order: identity, Pos bits, and the very Payload bytes (so the
// operand each came from).
func samePackets(t *testing.T, label string, got, want Sequence) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d packets, want %d\n got %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if !SameIdentity(g, w) || math.Float64bits(g.Pos) != math.Float64bits(w.Pos) ||
			len(g.Payload) != len(w.Payload) || len(g.Payload) > 0 && &g.Payload[0] != &w.Payload[0] {
			t.Fatalf("%s: packet %d is %v@%v (payload %q), want %v@%v (payload %q)",
				label, i, g, g.Pos, g.Payload, w, w.Pos, w.Payload)
		}
	}
}

// unionOperands draws two sorted sequences with up to na and nb data
// packets over a shared index range: parities nested up to two levels,
// some of them recurring in the other operand, at another position or
// the same one, and with dups, adjacent duplicates inside each.
func unionOperands(rng *rand.Rand, na, nb int, dups bool) (a, b Sequence) {
	span := int64(max(na, nb)) + 1
	draw := func(n int) Sequence {
		var s Sequence
		for len(s) < n {
			s = append(s, NewData(1+rng.Int63n(span)))
		}
		s.Sort()
		s = dedupe(s)
		var parities []Packet
		for i := 0; i+1 < len(s); i += 2 {
			if rng.Intn(3) == 0 {
				p := NewParity([]Packet{s[i], s[i+1]}, MidPos(s[i].Pos, s[i+1].Pos))
				if rng.Intn(4) == 0 && len(parities) > 0 {
					p = NewParity([]Packet{s[i], parities[len(parities)-1]}, MidPos(s[i].Pos, s[i].Pos+1))
				}
				parities = append(parities, p)
			}
		}
		return append(s, parities...)
	}
	a, b = draw(na), draw(nb)
	// Parities that recur: each operand gets a few of the other's at
	// another position, or at the same one.
	recur := func(to, from Sequence) Sequence {
		for _, p := range from {
			if !p.IsData() && rng.Intn(3) == 0 {
				if rng.Intn(2) == 0 {
					p.Pos = float64(rng.Int63n(span)) + 0.25
				}
				to = append(to, p)
			}
		}
		return to
	}
	a, b = recur(a, b), recur(b, a)
	a.Sort()
	b.Sort()
	a, b = dedupe(a), dedupe(b)
	if dups {
		a, b = withAdjacentDuplicates(rng, a), withAdjacentDuplicates(rng, b)
	}
	return tagged(a, 'a'), tagged(b, 'b')
}

// shuffleSome swaps a few packets of s, in a copy.
func shuffleSome(rng *rand.Rand, s Sequence) Sequence {
	s = s.Clone()
	for n := rng.Intn(4); n >= 0 && len(s) > 1; n-- {
		i, j := rng.Intn(len(s)), rng.Intn(len(s))
		s[i], s[j] = s[j], s[i]
	}
	return s
}

// randomDrop is nil or a predicate dropping about one packet in m by
// identity, as a hand-off's Given set does.
func randomDrop(rng *rand.Rand) func(*Packet) bool {
	if rng.Intn(3) == 0 {
		return nil
	}
	m, r := uint64(1+rng.Intn(5)), uint64(rng.Intn(5))
	return func(p *Packet) bool { return p.Hash()%m == r%m }
}

// checkUnion runs UnionExcept and the step-by-step reference on a, b
// and drop, and on b, a and drop, and compares them packet for packet.
func checkUnion(t *testing.T, label string, a, b Sequence, drop func(*Packet) bool) {
	t.Helper()
	for _, c := range []struct{ a, b Sequence }{{a, b}, {b, a}} {
		want := unionExceptStep(c.a, c.b, drop)
		samePackets(t, label, UnionExcept(c.a, c.b, drop), want)
	}
}

// UnionExcept is the step-by-step merge, packet for packet, over size
// ratios from 1:1 to 1:1000, recurring parities, adjacent duplicates,
// random drop predicates and unsorted operands (a recurring parity that
// collapses at the heads leaves a's copy out of position, and the
// simulator merges such sequences again).
func TestUnionEqualsStepByStep(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, ratio := range []int{1, 2, 3, 10, 30, 100, 1000} {
		for trial := 0; trial < 60; trial++ {
			nb := 1 + rng.Intn(12)
			if ratio >= 100 {
				nb = 1 + rng.Intn(3)
			}
			a, b := unionOperands(rng, ratio*nb, nb, trial%2 == 1)
			if trial%5 == 4 {
				a, b = shuffleSome(rng, a), shuffleSome(rng, b)
			}
			checkUnion(t, fmt.Sprintf("ratio %d", ratio), a, b, randomDrop(rng))
		}
	}
	// Empty operands and a drop that takes everything.
	a, b := unionOperands(rng, 40, 5, false)
	all := func(*Packet) bool { return true }
	for _, c := range []struct {
		a, b Sequence
		drop func(*Packet) bool
	}{{nil, nil, nil}, {a, nil, nil}, {nil, b, nil}, {a, b, all}, {b, a, all}, {nil, b, all}} {
		samePackets(t, "edge", UnionExcept(c.a, c.b, c.drop), unionExceptStep(c.a, c.b, c.drop))
	}
}

// A parity that recurs at another position collapses when the two copies
// meet at the heads, here inside the run of the longer operand that the
// walk copies, and the copy kept is a's, at a's position.
func TestUnionCollapsesRecurringParityAtHeads(t *testing.T) {
	early := NewParity([]Packet{NewData(1), NewData(2)}, 1.5)
	late := early
	late.Pos = 7.5
	long := tagged(append(Sequence{NewData(1), early}, Range(2, 8)...), 'l')
	short := tagged(Sequence{late, NewData(9)}, 's')
	checkUnion(t, "recurring", long, short, nil)
	for _, c := range []struct {
		a, b Sequence
		pos  float64
	}{{long, short, 1.5}, {short, long, 7.5}} {
		got := Union(c.a, c.b)
		if len(got) != 10 || got[1].Pos != c.pos || got[1].Payload[0] != c.a[0].Payload[0] || got[2].Index != 2 {
			t.Fatalf("Union = %v, want p(t1,t2) once, second, at %v, from the left operand", got, c.pos)
		}
	}
}

func FuzzUnion(f *testing.F) {
	f.Add(int64(1), uint16(365), uint16(11), uint8(0), false)
	f.Add(int64(2), uint16(40), uint16(40), uint8(3), true)
	f.Add(int64(3), uint16(0), uint16(7), uint8(1), false)
	f.Fuzz(func(t *testing.T, seed int64, na, nb uint16, dropMod uint8, dups bool) {
		rng := rand.New(rand.NewSource(seed))
		a, b := unionOperands(rng, int(na%4000), int(nb%4000), dups)
		var drop func(*Packet) bool
		if m := uint64(dropMod % 8); m > 0 {
			drop = func(p *Packet) bool { return p.Hash()%m == 0 }
		}
		if dropMod&0x80 != 0 {
			a, b = shuffleSome(rng, a), shuffleSome(rng, b)
		}
		checkUnion(t, "fuzz", a, b, drop)
	})
}

// A Set answers what a map keyed by Key answers, for packets added and
// for packets not, parities recurring at other positions included, at
// sizes where bucket collisions are common.
func TestSetMatchesKeyMap(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 300; trial++ {
		a, b := unionOperands(rng, rng.Intn(60), rng.Intn(60), false)
		want := make(map[string]bool)
		var s Set // grows from empty
		if trial%2 == 0 {
			s = NewSet(len(a))
		}
		for i := range a {
			s.Add(&a[i])
			want[a[i].Key()] = true
		}
		if s.n != len(want) {
			t.Fatalf("trial %d: %d identities in the set, want %d", trial, s.n, len(want))
		}
		for _, q := range append(a.Clone(), b...) {
			if got := s.Has(&q); got != want[q.Key()] {
				t.Fatalf("trial %d: Has(%v) = %v, want %v", trial, q, got, want[q.Key()])
			}
		}
	}
}
