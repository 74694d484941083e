package parity

import (
	"math/rand"
	"strconv"
	"testing"

	"p2pmss/internal/seq"
)

// Randomly nested parity packets round-trip through their identity keys:
// CoversOf(p.Key()) returns exactly the keys of p's covers at every
// nesting level.
func TestCoversOfNestedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		pool := []seq.Packet{seq.NewData(int64(rng.Intn(50) + 1))}
		for depth := 0; depth < 1+rng.Intn(4); depth++ {
			n := 1 + rng.Intn(3)
			covered := make([]seq.Packet, 0, n)
			for i := 0; i < n; i++ {
				covered = append(covered, pool[rng.Intn(len(pool))])
			}
			p := seq.NewParity(covered, float64(trial))
			covers, ok := CoversOf(p.Key())
			if !ok {
				t.Fatalf("CoversOf rejected constructed key %q", p.Key())
			}
			if len(covers) != p.NumCovers() {
				t.Fatalf("CoversOf(%q) = %v, want %d covers", p.Key(), covers, p.NumCovers())
			}
			for i := range covers {
				if want := p.Cover(i).Key(); covers[i] != want {
					t.Fatalf("cover %d = %q, want %q", i, covers[i], want)
				}
			}
			pool = append(pool, p)
		}
	}
}

// |Esq(pkt, h)| = |pkt| + ⌈|pkt|/h⌉: one parity packet per (possibly
// short final) recovery segment, for arbitrary lengths and intervals.
func TestEnhanceCountProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		l := int64(1 + rng.Intn(200))
		h := 1 + rng.Intn(12)
		s := seq.Range(1, l)
		e := Enhance(s, h)
		segments := (int(l) + h - 1) / h
		if len(e) != int(l)+segments {
			t.Fatalf("|Enhance(len %d, h %d)| = %d, want %d", l, h, len(e), int(l)+segments)
		}
		if e.CountData() != int(l) || len(e)-e.CountData() != segments {
			t.Fatalf("enhanced counts: %d data, %d parity", e.CountData(), len(e)-e.CountData())
		}
	}
}

// DataKey/DataIndexOf invert each other, and reject non-data keys.
func TestDataKeyRoundTrip(t *testing.T) {
	for _, k := range []int64{1, 7, 100000} {
		got, ok := DataIndexOf(DataKey(k))
		if !ok || got != k {
			t.Errorf("DataIndexOf(DataKey(%d)) = %d, %v", k, got, ok)
		}
	}
	for _, bad := range []string{"", "t", "p(t1,t2)", "x7", "tx"} {
		if _, ok := DataIndexOf(bad); ok {
			t.Errorf("DataIndexOf(%q) accepted", bad)
		}
	}
}

// deliverAndCheck feeds the kept packets of an enhanced sequence to a
// fresh Recoverer in the given order and asserts every data packet of
// the original sequence s ends up present with its original payload.
func deliverAndCheck(t *testing.T, s, kept seq.Sequence, order []int, label string) {
	t.Helper()
	r := NewRecoverer()
	for _, j := range order {
		r.Add(kept[j])
	}
	if got := dataPresent(r); got != len(s) {
		t.Fatalf("%s: recovered %d/%d data packets", label, got, len(s))
	}
	for _, p := range s {
		b, ok := dataPayload(r, p.Index)
		if !ok {
			t.Fatalf("%s: t%d missing after recovery", label, p.Index)
		}
		if string(b[:len(p.Payload)]) != string(p.Payload) {
			t.Fatalf("%s: t%d payload corrupted", label, p.Index)
		}
	}
}

// dropPerGroup removes one random packet from every (h+1)-sized group
// of the enhanced sequence — the worst per-segment loss XOR parity can
// still cover.
func dropPerGroup(rng *rand.Rand, e seq.Sequence, h int) seq.Sequence {
	kept := make(seq.Sequence, 0, len(e))
	for g := 0; g*(h+1) < len(e); g++ {
		lo := g * (h + 1)
		hi := lo + h + 1
		if hi > len(e) {
			hi = len(e)
		}
		skip := lo + rng.Intn(hi-lo)
		for j := lo; j < hi; j++ {
			if j != skip {
				kept = append(kept, e[j])
			}
		}
	}
	return kept
}

// Recovery is delivery-order independent: with one loss per recovery
// segment, the same present set and payloads emerge whether packets
// arrive in order, reversed (every parity before the data it covers),
// or in any shuffle. Regression for the §3.2 decoder under reordering
// datagram transports.
func TestRecovererOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 80; trial++ {
		l := int64(5 + rng.Intn(60))
		h := 1 + rng.Intn(5)
		var s seq.Sequence
		for k := int64(1); k <= l; k++ {
			buf := make([]byte, 8+rng.Intn(24))
			rng.Read(buf)
			s = append(s, seq.NewDataPayload(k, buf))
		}
		kept := dropPerGroup(rng, Enhance(s, h), h)
		inOrder := make([]int, len(kept))
		reversed := make([]int, len(kept))
		shuffled := make([]int, len(kept))
		for j := range kept {
			inOrder[j] = j
			reversed[j] = len(kept) - 1 - j
			shuffled[j] = j
		}
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		label := func(o string) string { return o + " (l=" + strconv.FormatInt(l, 10) + " h=" + strconv.Itoa(h) + ")" }
		deliverAndCheck(t, s, kept, inOrder, label("in-order"))
		deliverAndCheck(t, s, kept, reversed, label("reversed"))
		deliverAndCheck(t, s, kept, shuffled, label("shuffled"))
	}
}

// FuzzRecovererDeliveryOrder fuzzes the decoder with arbitrary content
// shapes, per-segment loss, and shuffled (including duplicated)
// delivery orders; any order must recover every data packet, deriving
// step by step what the fixpoint oracle derives.
func FuzzRecovererDeliveryOrder(f *testing.F) {
	f.Add(int64(1), int64(20), 3)
	f.Add(int64(2), int64(7), 1)
	f.Add(int64(3), int64(50), 5)
	f.Add(int64(99), int64(1), 12)
	f.Fuzz(func(t *testing.T, seed, l int64, h int) {
		l = 1 + (l%200+200)%200
		h = 1 + (h%10+10)%10
		rng := rand.New(rand.NewSource(seed))
		var s seq.Sequence
		for k := int64(1); k <= l; k++ {
			buf := make([]byte, 4+rng.Intn(12))
			rng.Read(buf)
			s = append(s, seq.NewDataPayload(k, buf))
		}
		kept := dropPerGroup(rng, Enhance(s, h), h)
		order := make([]int, 0, len(kept)*2)
		for j := range kept {
			order = append(order, j)
			if rng.Intn(4) == 0 {
				order = append(order, j) // duplicate delivery
			}
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		deliverAndCheck(t, s, kept, order, "fuzz")
		arrivals := make(seq.Sequence, len(order))
		for i, j := range order {
			arrivals[i] = kept[j]
		}
		checkAgainstOracle(t, NewRecoverer(), arrivals, l, "fuzz")
	})
}

// The OnData hook fires exactly once per content index, for received and
// recovered packets alike, and the data count tracks it.
func TestRecovererDataHook(t *testing.T) {
	var s seq.Sequence
	rng := rand.New(rand.NewSource(2))
	for k := int64(1); k <= 20; k++ {
		buf := make([]byte, 16)
		rng.Read(buf)
		s = append(s, seq.NewDataPayload(k, buf))
	}
	e := Enhance(s, 4)
	r := NewRecoverer()
	seen := map[int64]int{}
	r.OnData(func(k int64) { seen[k]++ })
	for j, p := range e {
		if j%5 == 2 {
			continue // drop one packet per segment; parity recovers it
		}
		r.Add(p)
		r.Add(p) // duplicate delivery must not re-fire the hook
	}
	if len(seen) != 20 || dataPresent(r) != 20 {
		t.Fatalf("hook saw %d indices, %d data present, want 20", len(seen), dataPresent(r))
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("t%d hook fired %d times", k, n)
		}
	}
	if r.Recovered() == 0 {
		t.Error("nothing was recovered; hook path for derived packets untested")
	}
}
