package parity

import (
	"p2pmss/internal/seq"
)

// Has reports whether a packet with p's identity is present (received
// or recovered).
func (r *Recoverer) Has(p seq.Packet) bool { return r.nodes[r.lookup(&p)].present }

// Present returns the number of present packets (received + recovered).
func (r *Recoverer) Present() int { return r.present }
