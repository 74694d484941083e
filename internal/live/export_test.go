package live

// Sent returns the number of data packets transmitted so far.
func (p *Peer) Sent() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sent
}

// Leaf returns the leaf for a session this node hosts, if any.
func (n *Node) Leaf(sid SessionID) (*Leaf, bool) {
	sh := &n.shards[shardIndex(sid)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	l, ok := sh.leaves[sid]
	return l, ok
}
