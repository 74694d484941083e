package seq

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"p2pmss/internal/wire"
)

// parseKey returns a packet with the identity key, and no position or
// payload; ok is false unless key is one Key returns. It decodes the key
// as the one cover of a parity packet on the wire.
func parseKey(key string) (p Packet, ok bool) {
	b := wire.AppendFloat([]byte{byte(Parity), 0}, 0)
	b = wire.AppendBytes(wire.AppendString(wire.AppendUvarint(b, 1), key), nil)
	r := wire.NewReader(b)
	if q := ReadPacket(&r); r.Done() == nil {
		return q.Cover(0), true
	}
	return Packet{}, false
}

// dedupe removes adjacent duplicate identities from a sorted sequence,
// in place. With mergeThenDedupe it is the two-pass reference that the
// single-pass Union is checked against.
func dedupe(s Sequence) Sequence {
	if len(s) < 2 {
		return s
	}
	out := s[:1]
	for i := range s[1:] {
		if p := &s[i+1]; !SameIdentity(p, &out[len(out)-1]) {
			out = append(out, *p)
		}
	}
	return out
}

// mergeThenDedupe is Union as it was first written: merge by position,
// collapsing only identities that meet at the two heads, then a second
// pass over the result.
func mergeThenDedupe(a, b Sequence) Sequence {
	out := make(Sequence, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case SameIdentity(&a[i], &b[j]):
			out = append(out, a[i])
			i++
			j++
		case Less(&a[i], &b[j]):
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return dedupe(out)
}

// withAdjacentDuplicates repeats some packets of s in place, so the
// result is still sorted but holds internal adjacent duplicates.
func withAdjacentDuplicates(rng *rand.Rand, s Sequence) Sequence {
	var out Sequence
	for _, p := range s {
		out = append(out, p)
		for rng.Intn(4) == 0 {
			out = append(out, p)
		}
	}
	return out
}

// The single-pass Union must return exactly what merge-then-dedupe
// returned, packet for packet (not only identity for identity: the
// representative kept for a shared identity is part of the contract),
// on canonical inputs and on sorted inputs with internal adjacent
// duplicates — and must leave both arguments byte-for-byte untouched,
// backing array included. The second half is what lets the engine and
// the drivers hand it live streams without a defensive Clone.
func TestUnionSinglePassEqualsMergeThenDedupe(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 500; trial++ {
		a, b := randomSequence(rng, 40), randomSequence(rng, 40)
		if trial%2 == 1 {
			a, b = withAdjacentDuplicates(rng, a), withAdjacentDuplicates(rng, b)
		}
		// Spare capacity behind both operands: a Union that appended to an
		// argument would show up in the tail.
		a = append(make(Sequence, 0, len(a)+4), a...)
		b = append(make(Sequence, 0, len(b)+4), b...)
		if trial%5 == 0 {
			b = a[len(a)/3:] // aliased operands: a suffix of the same array
		}
		a0 := append(Sequence(nil), a[:cap(a)]...)
		b0 := append(Sequence(nil), b[:cap(b)]...)

		want := mergeThenDedupe(a, b)
		got := Union(a, b)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Union(%v, %v)\n got %v\nwant %v", trial, a, b, got, want)
		}
		if !reflect.DeepEqual(a[:cap(a)], a0) || !reflect.DeepEqual(b[:cap(b)], b0) {
			t.Fatalf("trial %d: Union wrote to an argument", trial)
		}
	}
}

// Div(s, H, i) is Divide(s, H)[i], and both allocate every part once at
// its final size.
func TestDivEqualsDivideExactSize(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		s := randomSequence(rng, int64(rng.Intn(60)))
		H := 1 + rng.Intn(12)
		parts := Divide(s, H)
		for i := 0; i < H; i++ {
			d := Div(s, H, i)
			if !reflect.DeepEqual(d, parts[i]) {
				t.Fatalf("Div(len %d, H=%d, %d) = %v, Divide part = %v", len(s), H, i, d, parts[i])
			}
			if want := (len(s) - i + H - 1) / H; len(s) > i && len(d) != want {
				t.Fatalf("Div(len %d, H=%d, %d) has %d packets, want ⌈(len−i)/H⌉ = %d", len(s), H, i, len(d), want)
			}
			if cap(d) != len(d) || cap(parts[i]) != len(parts[i]) {
				t.Fatalf("part %d of %d over len %d: cap %d/%d, len %d — not allocated at its final size",
					i, H, len(s), cap(d), cap(parts[i]), len(d))
			}
		}
	}
}

// randomSequence builds a canonical sequence of data packets (drawn from
// 1..span) with parity packets nested up to two levels, mimicking the
// §3.6 re-enhancement shapes.
func randomSequence(rng *rand.Rand, span int64) Sequence {
	var s Sequence
	for k := int64(1); k <= span; k++ {
		if rng.Intn(2) == 0 {
			s = append(s, NewData(k))
		}
	}
	// Sprinkle parity packets over random pairs, occasionally nesting.
	var parities []Packet
	for i := 0; i+1 < len(s); i += 2 {
		if rng.Intn(3) == 0 {
			p := NewParity([]Packet{s[i], s[i+1]}, MidPos(s[i].Pos, s[i+1].Pos))
			if rng.Intn(4) == 0 && len(parities) > 0 {
				q := parities[len(parities)-1]
				p = NewParity([]Packet{s[i], q}, MidPos(s[i].Pos, s[i].Pos+1))
			}
			parities = append(parities, p)
		}
	}
	s = append(s, parities...)
	s.Sort()
	return dedupe(s)
}

// canonical asserts the invariant every algebra result must satisfy:
// sorted by (Pos, key) with no duplicate identities.
func canonical(t *testing.T, label string, s Sequence) {
	t.Helper()
	if !s.Sorted() {
		t.Fatalf("%s: not in canonical order: %v", label, s)
	}
	for i := 1; i < len(s); i++ {
		if SameIdentity(&s[i-1], &s[i]) {
			t.Fatalf("%s: duplicate identity %v at %d", label, s[i], i)
		}
	}
}

// The identity a packet carries must always agree with its key: parsing
// the key back gives the same identity and the same key, for
// constructed packets, for a struct literal of a data packet, and for a
// parity spelled only by its key.
func TestCachedIdentityEqualsComputedKey(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		for _, p := range randomSequence(rng, 40) {
			q, ok := parseKey(p.Key())
			if !ok || !SameIdentity(&q, &p) || q.Key() != p.Key() {
				t.Fatalf("key %q parses back to %q (%v)", p.Key(), q.Key(), ok)
			}
		}
	}
	lit := Packet{Index: 12}
	if lit.Key() != "t12" {
		t.Errorf("literal data key = %q", lit.Key())
	}
	plit, ok := parseKey("p(t1,p(t2,t3))")
	if !ok || plit.Key() != "p(t1,p(t2,t3))" || plit.String() != plit.Key() {
		t.Errorf("parsed parity key = %q (%v)", plit.Key(), ok)
	}
	built := NewParity([]Packet{NewData(1), NewParity([]Packet{NewData(2), NewData(3)}, 2.5)}, 1.5)
	if !SameIdentity(&plit, &built) || CompareIdentity(&plit, &built) != 0 {
		t.Error("parsed and constructed p(t1,p(t2,t3)) not identical")
	}
	t12, t13 := NewData(12), NewData(13)
	if !SameIdentity(&lit, &t12) {
		t.Error("literal and constructed t12 not identical")
	}
	if SameIdentity(&lit, &t13) || SameIdentity(&lit, &plit) {
		t.Error("distinct packets reported identical")
	}
}

// Union/Intersect invariants over arbitrary generated sequences
// (including parity packets): canonical results, no duplicates,
// inclusion-exclusion on sizes, intersection contained in both inputs.
func TestSetAlgebraInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		a := randomSequence(rng, 30)
		b := randomSequence(rng, 30)
		u := Union(a, b)
		x := Intersect(a, b)
		canonical(t, "union", u)
		canonical(t, "intersect", x)
		if len(u)+len(x) != len(a)+len(b) {
			t.Fatalf("|A∪B|+|A∩B| = %d+%d, want |A|+|B| = %d+%d",
				len(u), len(x), len(a), len(b))
		}
		for _, p := range x {
			if a.IndexOfKey(p.Key()) < 0 || b.IndexOfKey(p.Key()) < 0 {
				t.Fatalf("intersection element %v missing from an input", p)
			}
		}
		if !Equal(Intersect(a, b), Intersect(b, a)) {
			t.Fatal("intersection not commutative")
		}
	}
}

// Sorted and unsorted inputs must agree on Intersect (the sorted path is
// a merge, the unsorted path a membership map).
func TestIntersectSortedUnsortedAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		a := randomSequence(rng, 25)
		b := randomSequence(rng, 25)
		want := Intersect(a, b)
		shuffled := b.Clone()
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		if got := Intersect(a, shuffled); !Equal(got, want) {
			t.Fatalf("Intersect with shuffled b = %v, want %v", got, want)
		}
	}
}

// Divide invariants on arbitrary sequences: parts are pairwise disjoint,
// round-robin sized, and concatenation order-preserving (their union is
// the input).
func TestDivideInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		s := randomSequence(rng, 40)
		H := 1 + rng.Intn(6)
		parts := Divide(s, H)
		total := 0
		u := Sequence(nil)
		for i, p := range parts {
			want := len(s) / H
			if i < len(s)%H {
				want++
			}
			if len(p) != want {
				t.Fatalf("part %d has %d packets, want %d", i, len(p), want)
			}
			total += len(p)
			for j := i + 1; j < len(parts); j++ {
				if !Disjoint(p, parts[j]) {
					t.Fatalf("parts %d and %d overlap", i, j)
				}
			}
			u = Union(u, p)
		}
		if total != len(s) || !Equal(u, s) {
			t.Fatalf("division loses packets: %d/%d", total, len(s))
		}
	}
}

// Repeated nested insertion: MidPos keeps producing strictly-between
// positions until the interval narrows to a single ulp, instead of
// collapsing onto lo as soon as the arithmetic midpoint rounds.
func TestMidPosNestedInsertion(t *testing.T) {
	lo, hi := 1.0, 2.0
	distinct := 0
	for i := 0; i < 200; i++ {
		if math.Nextafter(lo, hi) >= hi {
			// No representable position strictly between: the documented
			// lo fallback is all that is left.
			if m := MidPos(lo, hi); m != lo {
				t.Fatalf("ulp-wide interval: MidPos(%v,%v) = %v, want lo", lo, hi, m)
			}
			break
		}
		m := MidPos(lo, hi)
		if !(m > lo && m < hi) {
			t.Fatalf("insertion %d: MidPos(%v, %v) = %v not strictly between", i, lo, hi, m)
		}
		hi = m
		distinct++
	}
	// Halving from (1,2) admits 52 strictly-between positions before the
	// interval narrows to one ulp of 1.0 — the representable maximum for
	// this chain. Anything less means MidPos collapsed early.
	if distinct < 52 {
		t.Errorf("only %d distinct nested positions before collapse", distinct)
	}
	// On huge intervals lo + (hi-lo)/2 overflows to +Inf; the Nextafter
	// fallback must still return a strictly-between position.
	if m := MidPos(-math.MaxFloat64, math.MaxFloat64); !(m > -math.MaxFloat64 && m < math.MaxFloat64) {
		t.Errorf("overflowing interval: MidPos = %v, want strictly between", m)
	}
}
