package gossip

// Infected reports whether a node has received the rumor.
func (e *Engine) Infected(id int) bool { return e.nodes[id].infected }
