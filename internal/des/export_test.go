package des

// Pending returns the number of scheduled events; cancelled ones have
// already left the queue.
func (e *Engine) Pending() int { return len(e.q) }
