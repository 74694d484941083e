package flight

// Peer returns the recorder's peer id.
func (r *Recorder) Peer() int {
	if r == nil {
		return 0
	}
	return r.peer
}
