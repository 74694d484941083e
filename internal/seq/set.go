package seq

// A Set holds packet identities for membership tests: an open-addressed
// table of packets keyed by Hash and confirmed by SameIdentity, so no key
// string and no map is built. It keeps pointers to the packets added,
// which must not change while the set is in use. The zero value is an
// empty set.
type Set struct {
	slots []*Packet // len a power of two, at most half full
	n     int
}

// NewSet returns a set with room for n packets before it grows.
func NewSet(n int) Set {
	var s Set
	s.resize(n)
	return s
}

func (s *Set) resize(n int) {
	size := 8
	for size < 2*n {
		size *= 2
	}
	old := s.slots
	s.slots, s.n = make([]*Packet, size), 0
	for _, p := range old {
		if p != nil {
			s.Add(p)
		}
	}
}

// Add puts p's identity in the set.
func (s *Set) Add(p *Packet) {
	if 2*(s.n+1) > len(s.slots) {
		s.resize(s.n + 1)
	}
	mask := uint64(len(s.slots) - 1)
	for i := p.Hash() & mask; ; i = (i + 1) & mask {
		switch q := s.slots[i]; {
		case q == nil:
			s.slots[i] = p
			s.n++
			return
		case SameIdentity(q, p):
			return
		}
	}
}

// Has reports whether a packet with p's identity was added.
func (s *Set) Has(p *Packet) bool {
	if s.n == 0 {
		return false
	}
	mask := uint64(len(s.slots) - 1)
	for i := p.Hash() & mask; s.slots[i] != nil; i = (i + 1) & mask {
		if SameIdentity(s.slots[i], p) {
			return true
		}
	}
	return false
}
