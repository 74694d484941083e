package overlay

import "fmt"

// Clone returns an independent copy of the view.
func (v View) Clone() View {
	c := View{n: v.n, bits: make([]uint64, len(v.bits))}
	copy(c.bits, v.bits)
	return c
}

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

// Size returns n, the total number of contents peers.
func (v View) Size() int { return v.n }

// Union returns VW_i ∪ VW_j as a new view.
func (v View) Union(o View) View {
	c := v.Clone()
	c.UnionIn(o)
	return c
}

// Missing returns the unset peers in ascending order.
func (v View) Missing() []PeerID {
	return v.MissingInto(make([]PeerID, 0, v.n-v.Count()))
}
