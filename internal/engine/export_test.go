package engine

// ChildrenTaken is how many children p has taken over its lifetime (the
// §3.3 cap counter), for the external tests.
func ChildrenTaken(p *Peer) int { return p.childrenTaken }

// Parent is p's adopting parent, p itself when leaf-rooted, or -1, for
// the external tests.
func Parent(p *Peer) int { return p.parent }
