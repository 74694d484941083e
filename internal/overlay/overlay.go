// Package overlay provides the membership primitives of §3.3–3.5: peer
// identifiers, views (the bit vector VW_i each contents peer maintains
// over the n contents peers), and the random child-selection functions
// Select and Aselect.
package overlay

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
)

// PeerID identifies a contents peer; contents peers are numbered 0..n-1.
type PeerID int

// View is the bit vector VW_i = ⟨VW_i1, …, VW_in⟩ of §3.4: bit k is set
// when peer k is perceived active (selected/transmitting). Views are
// value types; operations return new views unless suffixed In.
type View struct {
	n    int
	bits []uint64
}

// NewView returns an empty view over n contents peers.
func NewView(n int) View {
	return NewViewOn(n, make([]uint64, (n+63)/64))
}

// NewViewOn returns an empty view over n contents peers whose bit vector
// is the first (n+63)/64 words of words' capacity, which must be zero:
// the form for a caller that carves many views' words from one block.
func NewViewOn(n int, words []uint64) View {
	if n < 0 {
		panic(fmt.Sprintf("overlay: view size %d", n))
	}
	return View{n: n, bits: words[:(n+63)/64]}
}

// Size returns n, the total number of contents peers.
func (v View) Size() int { return v.n }

// Clone returns an independent copy of the view.
func (v View) Clone() View {
	c := View{n: v.n, bits: make([]uint64, len(v.bits))}
	copy(c.bits, v.bits)
	return c
}

// Add sets bit p. It panics if p is out of range.
func (v *View) Add(p PeerID) {
	v.check(p)
	v.bits[p/64] |= 1 << (uint(p) % 64)
}

// AddAll sets every bit in ps.
func (v *View) AddAll(ps []PeerID) {
	for _, p := range ps {
		v.Add(p)
	}
}

// Has reports whether bit p is set.
func (v View) Has(p PeerID) bool {
	v.check(p)
	return v.bits[p/64]&(1<<(uint(p)%64)) != 0
}

func (v View) check(p PeerID) {
	if p < 0 || int(p) >= v.n {
		panic(fmt.Sprintf("overlay: peer %d outside view of size %d", p, v.n))
	}
}

// Count returns |VW| — the number of set bits.
func (v View) Count() int {
	c := 0
	for _, w := range v.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// Full reports whether all n bits are set (|VW_i| = n, DCoP's stopping
// condition).
func (v View) Full() bool { return v.Count() == v.n }

// UnionIn merges o into v (VW_i := VW_i ∪ c.VW). Both views must have the
// same size.
func (v *View) UnionIn(o View) {
	if v.n != o.n {
		panic(fmt.Sprintf("overlay: union of views with sizes %d and %d", v.n, o.n))
	}
	for i := range v.bits {
		v.bits[i] |= o.bits[i]
	}
}

// Union returns VW_i ∪ VW_j as a new view.
func (v View) Union(o View) View {
	c := v.Clone()
	c.UnionIn(o)
	return c
}

// Members returns the set peers in ascending order.
func (v View) Members() []PeerID {
	return v.MembersInto(make([]PeerID, 0, v.Count()))
}

// MembersInto appends the set peers to buf in ascending order and
// returns it — the zero-steady-state-allocation form of Members for
// callers that retain a scratch buffer.
func (v View) MembersInto(buf []PeerID) []PeerID {
	for wi, w := range v.bits {
		base := PeerID(wi * 64)
		for w != 0 {
			buf = append(buf, base+PeerID(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return buf
}

// Missing returns the unset peers in ascending order.
func (v View) Missing() []PeerID {
	return v.MissingInto(make([]PeerID, 0, v.n-v.Count()))
}

// MissingInto appends the unset peers to buf in ascending order and
// returns it.
func (v View) MissingInto(buf []PeerID) []PeerID {
	for wi, w := range v.bits {
		w = ^w
		base := int(wi * 64)
		for w != 0 {
			p := base + bits.TrailingZeros64(w)
			if p >= v.n {
				break
			}
			buf = append(buf, PeerID(p))
			w &= w - 1
		}
	}
	return buf
}

// String renders the view as the set of active peers.
func (v View) String() string {
	ms := v.Members()
	parts := make([]string, len(ms))
	for i, p := range ms {
		parts[i] = fmt.Sprintf("%d", p)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// selectSampleThreshold switches Select to rejection sampling: when the
// complement of the view is larger than this, materializing and
// shuffling the full candidate list costs O(n) per call — quadratic
// over a sweep — so large overlays sample candidates directly instead.
// Below the threshold the historical shuffle is kept bit-for-bit, so
// seeded runs at the paper's scales (n ≤ a few thousand) reproduce
// results recorded before the fast path existed.
const selectSampleThreshold = 4096

// SelectWithSpares implements the paper's Select(CP, CP_i, m): it
// returns up to m distinct contents peers drawn uniformly at random from
// the peers NOT in view (CP − {CP_k | CP_k ∈ VW_i}), nil when the view is
// full (the paper's φ), and the candidates that did NOT make the cut, in
// shuffled order — the failover preference list for churn-tolerant
// retry. The caller's own ID should already be in its view. The spares
// cost no extra draw (one shuffle of the full candidate list), so a
// caller that ignores them observes the same random stream.
func SelectWithSpares(rng *rand.Rand, view View, m int) (sel, spares []PeerID) {
	return SelectWithSparesInto(rng, view, m, nil, true)
}

// SelectWithSparesInto is SelectWithSpares writing into buf (the
// returned slices alias it), so steady-state callers that retain a
// scratch buffer select without allocating. withSpares=false skips the
// spare list (it still consumes the RNG identically on the shuffle
// path). Above selectSampleThreshold missing peers, candidates are
// rejection-sampled instead of shuffled — the RNG stream differs from
// the small-overlay path, and the spare list is truncated to at most m
// entries (a full preference list over ~n peers is useless at that
// scale and would cost O(n) to build).
func SelectWithSparesInto(rng *rand.Rand, view View, m int, buf []PeerID, withSpares bool) (sel, spares []PeerID) {
	if m <= 0 {
		return nil, nil
	}
	missing := view.n - view.Count()
	if missing == 0 {
		return nil, nil
	}
	if sampled(missing, m) {
		return selectSampled(rng, view, m, buf, withSpares)
	}
	cand := view.MissingInto(buf[:0])
	rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	if m < len(cand) {
		if withSpares {
			return cand[:m], cand[m:]
		}
		return cand[:m], nil
	}
	return cand, nil
}

// sampled reports whether a selection of m among missing out-of-view
// peers samples them rather than shuffling them all.
func sampled(missing, m int) bool {
	return missing > selectSampleThreshold && missing >= 8*m
}

// SelectLen is how many entries SelectWithSparesInto writes into its
// buffer when it selects m peers outside view: every missing peer on the
// shuffle path, m (2m with spares) when it samples. A buffer with that
// capacity is never regrown.
func SelectLen(view View, m int, withSpares bool) int {
	missing := view.n - view.Count()
	switch {
	case m <= 0 || missing == 0:
		return 0
	case !sampled(missing, m):
		return missing
	case withSpares:
		return 2 * m
	}
	return m
}

// selectSampled draws want = m (+ up to m spares) distinct out-of-view
// peers by uniform rejection sampling. Picks are transiently marked in
// the view's own bit array to keep the draw distinct without an
// auxiliary set, and unmarked before returning.
func selectSampled(rng *rand.Rand, view View, m int, buf []PeerID, withSpares bool) (sel, spares []PeerID) {
	want := m
	if withSpares {
		want += m
	}
	out := buf[:0]
	for len(out) < want {
		p := PeerID(rng.Intn(view.n))
		if view.Has(p) {
			continue
		}
		view.bits[p/64] |= 1 << (uint(p) % 64) // transient: undone below
		out = append(out, p)
	}
	for _, p := range out {
		view.bits[p/64] &^= 1 << (uint(p) % 64)
	}
	if withSpares {
		return out[:m], out[m:]
	}
	return out[:m], nil
}
