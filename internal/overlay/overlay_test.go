package overlay

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestViewBasics(t *testing.T) {
	v := NewView(100)
	if v.Count() != 0 || v.Full() {
		t.Error("fresh view not empty")
	}
	v.Add(0)
	v.Add(63)
	v.Add(64)
	v.Add(99)
	if v.Count() != 4 {
		t.Errorf("Count = %d", v.Count())
	}
	for _, p := range []PeerID{0, 63, 64, 99} {
		if !v.Has(p) {
			t.Errorf("Has(%d) = false", p)
		}
	}
	if v.Has(1) || v.Has(98) {
		t.Error("spurious bits set")
	}
	if v.Size() != 100 {
		t.Errorf("Size = %d", v.Size())
	}
}

func TestViewFull(t *testing.T) {
	v := NewView(70)
	for p := PeerID(0); int(p) < 70; p++ {
		v.Add(p)
	}
	if !v.Full() {
		t.Error("Full = false after adding all")
	}
}

func TestViewUnion(t *testing.T) {
	a, b := NewView(10), NewView(10)
	a.AddAll([]PeerID{1, 2, 3})
	b.AddAll([]PeerID{3, 4})
	u := a.Union(b)
	if u.Count() != 4 {
		t.Errorf("union count = %d", u.Count())
	}
	// Union must not mutate a.
	if a.Count() != 3 {
		t.Error("Union mutated receiver")
	}
	a.UnionIn(b)
	if a.Count() != 4 {
		t.Error("UnionIn failed")
	}
}

func TestViewMembersMissing(t *testing.T) {
	v := NewView(5)
	v.AddAll([]PeerID{0, 2, 4})
	got := v.Members()
	want := []PeerID{0, 2, 4}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("Members = %v", got)
	}
	miss := v.Missing()
	if len(miss) != 2 || miss[0] != 1 || miss[1] != 3 {
		t.Errorf("Missing = %v", miss)
	}
	if v.String() != "{0,2,4}" {
		t.Errorf("String = %q", v.String())
	}
}

func TestViewCloneIndependent(t *testing.T) {
	a := NewView(10)
	a.Add(1)
	b := a.Clone()
	b.Add(2)
	if a.Has(2) {
		t.Error("Clone shares storage")
	}
}

func TestViewPanics(t *testing.T) {
	v := NewView(4)
	for name, fn := range map[string]func(){
		"out of range add": func() { v.Add(4) },
		"negative has":     func() { v.Has(-1) },
		"mismatched union": func() { o := NewView(5); v.UnionIn(o) },
		"negative NewView": func() { NewView(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSelectExcludesView(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := NewView(10)
	v.AddAll([]PeerID{0, 1, 2, 3, 4})
	for trial := 0; trial < 50; trial++ {
		got := Select(rng, v, 3)
		if len(got) != 3 {
			t.Fatalf("len = %d", len(got))
		}
		seen := map[PeerID]bool{}
		for _, p := range got {
			if v.Has(p) {
				t.Fatalf("selected %d from view", p)
			}
			if seen[p] {
				t.Fatalf("duplicate selection %d", p)
			}
			seen[p] = true
		}
	}
}

func TestSelectCapsAtAvailable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := NewView(5)
	v.AddAll([]PeerID{0, 1, 2})
	got := Select(rng, v, 10)
	if len(got) != 2 {
		t.Errorf("len = %d, want 2", len(got))
	}
}

func TestSelectFullViewReturnsNil(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := NewView(3)
	v.AddAll([]PeerID{0, 1, 2})
	if got := Select(rng, v, 2); got != nil {
		t.Errorf("Select from full view = %v", got)
	}
	if got := Select(rng, NewView(3), 0); got != nil {
		t.Errorf("Select m=0 = %v", got)
	}
}

func TestSelectUniformish(t *testing.T) {
	// Every candidate should be selected a reasonable share of the time.
	rng := rand.New(rand.NewSource(99))
	v := NewView(10)
	counts := make(map[PeerID]int)
	const trials = 5000
	for i := 0; i < trials; i++ {
		for _, p := range Select(rng, v, 3) {
			counts[p]++
		}
	}
	for p := PeerID(0); p < 10; p++ {
		frac := float64(counts[p]) / trials
		if frac < 0.2 || frac > 0.4 { // expect 0.3
			t.Errorf("peer %d selected fraction %v, want ≈0.3", p, frac)
		}
	}
}

// Above the sampling threshold, selection rejection-samples: m distinct
// peers outside the view, m distinct spares besides them (not the whole
// preference list the shuffle path returns), and the view it marked
// peers in left as it was.
func TestSelectSampledLargeOverlay(t *testing.T) {
	const n, m = 10000, 5
	v := NewView(n)
	v.AddAll([]PeerID{0, 17, 4242, 9999})
	before := v.Clone()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		sel, spares := SelectWithSparesInto(rng, v, m, nil, true)
		if len(sel) != m || len(spares) != m {
			t.Fatalf("selected %d with %d spares, want %d and %d", len(sel), len(spares), m, m)
		}
		seen := make(map[PeerID]bool)
		for _, p := range append(sel, spares...) {
			if p < 0 || p >= n || v.Has(p) || seen[p] {
				t.Fatalf("drew %d: outside the universe, in the view, or twice (%v + %v)", p, sel, spares)
			}
			seen[p] = true
		}
		if sel, spares := SelectWithSparesInto(rng, v, m, nil, false); len(sel) != m || spares != nil {
			t.Fatalf("without spares: selected %d, spares %v", len(sel), spares)
		}
	}
	if !reflect.DeepEqual(v, before) {
		t.Error("sampling left marks in the view")
	}
}

func TestSelectFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	got := SelectFrom(rng, 6, View{}, 6)
	if len(got) != 6 {
		t.Errorf("len = %d, want all 6", len(got))
	}
	ex := NewView(6)
	ex.AddAll([]PeerID{0, 1})
	got = SelectFrom(rng, 6, ex, 10)
	if len(got) != 4 {
		t.Errorf("len = %d, want 4", len(got))
	}
}

// Property: views form a join-semilattice — union is commutative,
// associative, idempotent, and monotone in Count.
func TestViewLatticeProperty(t *testing.T) {
	mk := func(sel uint16) View {
		v := NewView(16)
		for p := 0; p < 16; p++ {
			if sel&(1<<p) != 0 {
				v.Add(PeerID(p))
			}
		}
		return v
	}
	f := func(x, y, z uint16) bool {
		a, b, c := mk(x), mk(y), mk(z)
		if !viewEq(a.Union(b), b.Union(a)) {
			return false
		}
		if !viewEq(a.Union(b).Union(c), a.Union(b.Union(c))) {
			return false
		}
		if !viewEq(a.Union(a), a) {
			return false
		}
		return a.Union(b).Count() >= a.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func viewEq(a, b View) bool {
	if a.n != b.n || a.Count() != b.Count() {
		return false
	}
	for _, p := range a.Members() {
		if !b.Has(p) {
			return false
		}
	}
	return true
}
