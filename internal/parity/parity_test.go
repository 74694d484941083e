package parity

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"p2pmss/internal/seq"
)

// §3.2 worked example: [⟨t1..t6⟩]^2 =
// ⟨t⟨1,2⟩, t1, t2, t3, t⟨3,4⟩, t4, t5, t6, t⟨5,6⟩⟩.
func TestPaperEnhanceExample(t *testing.T) {
	got := Enhance(seq.Range(1, 6), 2).Keys()
	want := []string{"p(t1,t2)", "t1", "t2", "t3", "p(t3,t4)", "t4", "t5", "t6", "p(t5,t6)"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Enhance keys = %v, want %v", got, want)
	}
}

// §3.2: [pkt]^2 divided into three subsequences:
// [pkt]_1^2 = ⟨t⟨1,2⟩, t3, t5, …⟩, [pkt]_2^2 = ⟨t1, t⟨3,4⟩, t6, …⟩,
// [pkt]_3^2 = ⟨t2, t4, t⟨5,6⟩, …⟩.
func TestPaperDivisionExample(t *testing.T) {
	e := Enhance(seq.Range(1, 6), 2)
	parts := seq.Divide(e, 3)
	wants := [][]string{
		{"p(t1,t2)", "t3", "t5"},
		{"t1", "p(t3,t4)", "t6"},
		{"t2", "t4", "p(t5,t6)"},
	}
	for i, want := range wants {
		if got := parts[i].Keys(); !reflect.DeepEqual(got, want) {
			t.Errorf("part %d = %v, want %v", i+1, got, want)
		}
	}
}

// §3.6 example continued to 12 packets: the three divisions carry
// rotated parity positions so each peer sends some parity.
func TestPaperSection36Division(t *testing.T) {
	e := Enhance(seq.Range(1, 12), 2)
	parts := seq.Divide(e, 3)
	wants := [][]string{
		{"p(t1,t2)", "t3", "t5", "p(t7,t8)", "t9", "t11"},
		{"t1", "p(t3,t4)", "t6", "t7", "p(t9,t10)", "t12"},
		{"t2", "t4", "p(t5,t6)", "t8", "t10", "p(t11,t12)"},
	}
	for i, want := range wants {
		if got := parts[i].Keys(); !reflect.DeepEqual(got, want) {
			t.Errorf("part %d = %v, want %v", i+1, got, want)
		}
	}
}

// §3.6: re-enhancing a subsequence that already contains parity produces
// nested parities such as t⟨5,⟨7,8⟩⟩.
func TestNestedEnhance(t *testing.T) {
	e := Enhance(seq.Range(1, 16), 2)
	part := seq.Divide(e, 3)[0] // ⟨p(t1,t2), t3, t5, p(t7,t8), t9, t11, p(t13,t14), t15⟩
	tail := part.Postfix(2)     // from t5
	re := Enhance(tail, 2)
	want := []string{
		"p(t5,p(t7,t8))", "t5", "p(t7,t8)",
		"t9", "p(t9,t11)", "t11",
		"p(t13,t14)", "t15", "p(p(t13,t14),t15)",
	}
	if got := re.Keys(); !reflect.DeepEqual(got, want) {
		t.Errorf("nested enhance = %v, want %v", got, want)
	}
}

func TestEnhanceLengthFormula(t *testing.T) {
	// |[pkt]^h| = |pkt|(h+1)/h when h divides |pkt|.
	for _, h := range []int{1, 2, 3, 5, 10} {
		l := 10 * h
		got := len(Enhance(seq.Range(1, int64(l)), h))
		want := l * (h + 1) / h
		if got != want {
			t.Errorf("h=%d: |[pkt]^h| = %d, want %d", h, got, want)
		}
	}
}

func TestEnhanceEmptyAndShortSegments(t *testing.T) {
	if Enhance(nil, 3) != nil {
		t.Error("Enhance(nil) != nil")
	}
	// 5 packets, h=3: final segment of 2 still gets a parity packet.
	e := Enhance(seq.Range(1, 5), 3)
	if n := len(e) - e.CountData(); n != 2 {
		t.Errorf("parity count = %d, want 2", n)
	}
	if e.CountData() != 5 {
		t.Errorf("data count = %d, want 5", e.CountData())
	}
}

func TestEnhanceSortedPositions(t *testing.T) {
	for _, h := range []int{1, 2, 4, 7} {
		e := Enhance(seq.Range(1, 30), h)
		if !sort.SliceIsSorted(e, func(i, j int) bool { return seq.Less(&e[i], &e[j]) }) {
			t.Errorf("h=%d: enhanced sequence not in canonical order: %v", h, e)
		}
	}
}

// Esq builds the identities of all its parities in two blocks: the
// enhanced Figure-12 content costs three allocations, not two per parity.
func TestEnhanceAllocsConstant(t *testing.T) {
	s := seq.Range(1, 30000)
	if n := testing.AllocsPerRun(50, func() { Enhance(s, 9) }); n != 3 {
		t.Errorf("Enhance(Range(1, 30000), 9): %.0f allocs, want 3", n)
	}
}

func TestXOR(t *testing.T) {
	a := []byte{0xF0, 0x0F}
	b := []byte{0x0F, 0xF0, 0xAA}
	got := xor([][]byte{a, b})
	want := []byte{0xFF, 0xFF, 0xAA}
	if !bytes.Equal(got, want) {
		t.Errorf("XOR = %x, want %x", got, want)
	}
	if xor(nil) != nil || xor([][]byte{nil, nil}) != nil {
		t.Error("XOR of empties should be nil")
	}
	// x ⊕ x = 0.
	z := xor([][]byte{a, a})
	for _, c := range z {
		if c != 0 {
			t.Errorf("x⊕x = %x", z)
		}
	}
}

func TestCoversOf(t *testing.T) {
	covers, ok := CoversOf("p(t5,p(t7,t8),t9)")
	if !ok {
		t.Fatal("CoversOf failed")
	}
	want := []string{"t5", "p(t7,t8)", "t9"}
	if !reflect.DeepEqual(covers, want) {
		t.Errorf("covers = %v, want %v", covers, want)
	}
	for _, bad := range []string{"t5", "p()", "p(t1", "", "q(t1)"} {
		if _, ok := CoversOf(bad); ok {
			t.Errorf("CoversOf(%q) unexpectedly ok", bad)
		}
	}
}

func TestRecoverSingleLoss(t *testing.T) {
	payload := func(k int64) []byte { return []byte{byte(k), byte(k * 3)} }
	var s seq.Sequence
	for k := int64(1); k <= 6; k++ {
		s = append(s, seq.NewDataPayload(k, payload(k)))
	}
	e := Enhance(s, 2)
	r := NewRecoverer()
	// Drop t3 (inside second segment with parity p(t3,t4)).
	for _, p := range e {
		if p.Key() != "t3" {
			r.Add(p)
		}
	}
	got, ok := dataPayload(r, 3)
	if !ok {
		t.Fatal("t3 not recovered")
	}
	if !bytes.Equal(got, payload(3)) {
		t.Errorf("recovered t3 = %x, want %x", got, payload(3))
	}
	// Two derivations occur: t2 is derived early (p(t1,t2) ⊕ t1 before t2
	// arrives in stream order) and the dropped t3 is derived from p(t3,t4).
	if r.Recovered() != 2 {
		t.Errorf("Recovered() = %d, want 2", r.Recovered())
	}
}

// Reliability claim of §3.2: even if one packet per recovery segment is
// lost, every data packet is recovered.
func TestRecoverySegmentProperty(t *testing.T) {
	f := func(seed int64, hh, ll uint8) bool {
		h := int(hh%5) + 1
		l := int64(ll%40) + int64(h)
		rng := rand.New(rand.NewSource(seed))
		var s seq.Sequence
		for k := int64(1); k <= l; k++ {
			buf := make([]byte, 8)
			rng.Read(buf)
			s = append(s, seq.NewDataPayload(k, buf))
		}
		e := Enhance(s, h)
		// Drop exactly one packet from each (h+1)-packet enhanced segment.
		r := NewRecoverer()
		for i := 0; i < len(e); i += h + 1 {
			end := i + h + 1
			if end > len(e) {
				end = len(e)
			}
			drop := i + rng.Intn(end-i)
			for j := i; j < end; j++ {
				if j != drop {
					r.Add(e[j])
				}
			}
		}
		for k := int64(1); k <= l; k++ {
			want, _ := find(s, k)
			got, ok := dataPayload(r, k)
			if !ok || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func find(s seq.Sequence, k int64) ([]byte, bool) {
	for _, p := range s {
		if p.IsData() && p.Index == k {
			return p.Payload, true
		}
	}
	return nil, false
}

// Nested recovery: losing an inner parity and recovering it from an outer
// parity, then using it to recover a data packet.
func TestNestedRecovery(t *testing.T) {
	p7 := seq.NewDataPayload(7, []byte{7})
	p8 := seq.NewDataPayload(8, []byte{8})
	inner := seq.NewParity([]seq.Packet{p7, p8}, 7.5)
	inner.Payload = xor([][]byte{p7.Payload, p8.Payload})
	p5 := seq.NewDataPayload(5, []byte{5})
	outer := seq.NewParity([]seq.Packet{p5, inner}, 4.5)
	outer.Payload = xor([][]byte{p5.Payload, inner.Payload})

	// Receive p5, p7, outer — inner parity and t8 both missing.
	r := NewRecoverer()
	r.Add(p5)
	r.Add(p7)
	r.Add(outer)
	// inner = outer ⊕ p5; then t8 = inner ⊕ t7.
	got, ok := dataPayload(r, 8)
	if !ok {
		t.Fatal("t8 not recovered through nested parity")
	}
	if !bytes.Equal(got, []byte{8}) {
		t.Errorf("t8 = %x", got)
	}
}

func TestRecovererIdempotentAdd(t *testing.T) {
	r := NewRecoverer()
	p := seq.NewDataPayload(1, []byte{1})
	r.Add(p)
	r.Add(p)
	if r.Present() != 1 {
		t.Errorf("Present = %d", r.Present())
	}
}

func TestRateFormulas(t *testing.T) {
	// §3.2: each of H peers sends at τ(h+1)/(hH); leaf receives τ(h+1)/h.
	if got := PerPeerRate(30, 2, 3); got != 15 {
		t.Errorf("PerPeerRate = %v, want 15", got)
	}
	if got := ReceiptRate(30, 2); got != 45 {
		t.Errorf("ReceiptRate = %v, want 45", got)
	}
	// For h = H-1 each peer sends τ/(H-1)·… → aggregate τH/(H-1).
	H := 5
	agg := PerPeerRate(1, H-1, H) * float64(H)
	want := float64(H) / float64(H-1)
	if diff := agg - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("aggregate = %v, want %v", agg, want)
	}
}

func TestEnhancePanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Enhance(s, 0) did not panic")
		}
	}()
	Enhance(seq.Range(1, 3), 0)
}

func FuzzCoversOf(f *testing.F) {
	f.Add("p(t1,t2)")
	f.Add("p(t5,p(t7,t8),t9)")
	f.Add("p(p(t1,t2),p(t3,p(t4,t5)))")
	f.Add("t3")
	f.Add("p(")
	f.Add("p()")
	f.Add("p(,)")
	f.Add("p(a))")
	f.Add("p((a)")
	f.Add("")
	f.Fuzz(func(t *testing.T, key string) {
		covers, ok := CoversOf(key)
		if !ok {
			return
		}
		// Parsed covers joined back must reproduce the key, and every
		// accepted key is paren-balanced.
		rebuilt := "p(" + strings.Join(covers, ",") + ")"
		if rebuilt != key {
			t.Errorf("round trip: %q -> %v -> %q", key, covers, rebuilt)
		}
		if strings.Count(key, "(") != strings.Count(key, ")") {
			t.Errorf("accepted unbalanced key %q", key)
		}
	})
}
