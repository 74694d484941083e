package seq

import (
	"cmp"
	"slices"
	"strconv"

	"p2pmss/internal/des"
)

// ident is a parity packet's identity: what it covers, in stream order,
// each cover a data index or the ident of a covered parity — §3.6's
// t⟨5,⟨7,8⟩⟩ is one node whose second cover is t⟨7,8⟩'s. Nodes are
// shared and never written after they are built.
type ident struct {
	hash   uint64 // of the covers: equal identities hash equal
	covers []ref
}

// ref is one cover: data packet t_index when node is nil, else the
// parity packet whose identity is node.
type ref struct {
	index int64
	node  *ident
}

// maxNesting bounds how deep a decoded key may nest: far deeper than any
// coordination tree re-enhances, and shallow enough for the stack.
const maxNesting = 1 << 10

func (r ref) hash() uint64 {
	if r.node != nil {
		return r.node.hash
	}
	return des.Mix(uint64(r.index))
}

func newIdent(covers []ref) ident {
	h := uint64(0x9e3779b97f4a7c15)
	for _, c := range covers {
		h = des.Mix(h ^ c.hash())
	}
	return ident{hash: h, covers: covers}
}

func sameRef(a, b ref) bool {
	if a.node == nil || b.node == nil {
		return a.node == b.node && a.index == b.index
	}
	return sameNode(a.node, b.node)
}

func sameNode(a, b *ident) bool {
	return a == b || a.hash == b.hash && slices.EqualFunc(a.covers, b.covers, sameRef)
}

// compareRef orders data before parity, data by index, and parity by
// hash, then cover count, then cover by cover: 0 exactly when sameRef.
func compareRef(a, b ref) int {
	switch {
	case a.node == nil && b.node == nil:
		return cmp.Compare(a.index, b.index)
	case a.node == nil:
		return -1
	case b.node == nil:
		return 1
	case a.node == b.node:
		return 0
	}
	if c := cmp.Compare(a.node.hash, b.node.hash); c != 0 {
		return c
	}
	return slices.CompareFunc(a.node.covers, b.node.covers, compareRef)
}

// appendKey appends the identity key of r: "t<k>" or "p(<keys>)".
func appendKey(b []byte, r ref) []byte {
	if r.node == nil {
		return strconv.AppendInt(append(b, 't'), r.index, 10)
	}
	b = append(b, "p("...)
	for i, c := range r.node.covers {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendKey(b, c)
	}
	return append(b, ')')
}

// keyLen is len(appendKey(nil, r)), computed without building the key.
func keyLen(r ref) int {
	if r.node == nil {
		n := 2 // 't' and the last digit
		for k := r.index; k >= 10 || k <= -10; k /= 10 {
			n++
		}
		return n + int(uint64(r.index)>>63)
	}
	n := len("p()") + max(len(r.node.covers)-1, 0)
	for _, c := range r.node.covers {
		n += keyLen(c)
	}
	return n
}

// An Arena builds parity packets whose identity nodes and cover lists
// come out of shared blocks: two allocations for all the parities
// parity.Enhance makes. The zero value allocates per packet.
type Arena struct {
	nodes []ident
	refs  []ref
}

// Reserve makes room for the given numbers of parity packets and covers
// in one block each.
func (a *Arena) Reserve(parities, covers int) {
	if cap(a.nodes)-len(a.nodes) < parities {
		a.nodes = make([]ident, 0, parities)
	}
	if cap(a.refs)-len(a.refs) < covers {
		a.refs = make([]ref, 0, covers)
	}
}

// NewParity is NewParity with the packet's identity built in a.
func (a *Arena) NewParity(covered []Packet, pos float64) Packet {
	a.Reserve(1, len(covered))
	refs := a.takeRefs(len(covered))
	for i := range covered {
		refs[i] = covered[i].ref()
	}
	return Packet{Pos: pos, id: a.node(refs)}
}

// takeRefs returns n references from the block Reserve made, nil for 0.
func (a *Arena) takeRefs(n int) []ref {
	if n == 0 {
		return nil
	}
	i := len(a.refs)
	a.refs = a.refs[:i+n]
	return a.refs[i : i+n : i+n]
}

// node files the identity covering refs in the block Reserve made.
func (a *Arena) node(refs []ref) *ident {
	a.nodes = append(a.nodes, newIdent(refs))
	return &a.nodes[len(a.nodes)-1]
}

// scanIndex reads the int64 that b starts with, spelled as
// strconv.FormatInt spells it, and returns it with its length, or n = 0
// if there is none.
func scanIndex(b []byte) (k int64, n int) {
	neg := len(b) > 0 && b[0] == '-'
	start := 0
	if neg {
		start = 1
	}
	var u uint64
	for n = start; n < len(b) && n-start < 19 && '0' <= b[n] && b[n] <= '9'; n++ {
		if n > start && u == 0 {
			return 0, 0 // a leading zero
		}
		u = u*10 + uint64(b[n]-'0')
	}
	if n == start || neg && (u == 0 || u > 1<<63) || !neg && u > 1<<63-1 {
		return 0, 0
	}
	if neg {
		return -int64(u), n
	}
	return int64(u), n
}

// keyReader reads cover keys twice: to count their nodes and covers, then
// to build them in an Arena reserved for the counts. An open node's covers
// wait at the far end of the cover block, from top up, until it closes.
type keyReader struct {
	a                Arena
	build            bool
	nodes, refs, top int
}

// cover reads the cover key b starts with — "t<k>", k spelled as
// strconv.FormatInt spells it, or "p(" comma-separated keys ")" — and
// returns its length, 0 if b starts with none.
func (d *keyReader) cover(b []byte, depth int) int {
	if len(b) > 0 && b[0] == 't' {
		k, n := scanIndex(b[1:])
		if n == 0 {
			return 0
		}
		d.push(ref{index: k})
		return 1 + n
	}
	if depth >= maxNesting || len(b) < 3 || b[0] != 'p' || b[1] != '(' {
		return 0
	}
	mark, i := d.top, 1 // b[i] is the '(' or ',' before the next cover
	if b[2] == ')' {
		i = 2
	}
	for b[i] != ')' {
		n := d.cover(b[i+1:], depth+1)
		if i += 1 + n; n == 0 || i >= len(b) || b[i] != ',' && b[i] != ')' {
			return 0
		}
	}
	d.push(ref{node: d.close(mark)})
	return i + 1
}

func (d *keyReader) push(r ref) {
	if !d.build {
		d.refs++
		return
	}
	d.top--
	d.a.refs[:cap(d.a.refs)][d.top] = r
}

// close files the node whose covers wait at [top, mark).
func (d *keyReader) close(mark int) *ident {
	if !d.build {
		d.nodes++
		return nil
	}
	covers := d.a.refs[d.top:mark]
	slices.Reverse(covers)
	copy(d.a.refs[len(d.a.refs):cap(d.a.refs)], covers)
	d.top = mark
	return d.a.node(d.a.takeRefs(len(covers)))
}
