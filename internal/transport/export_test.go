package transport

// Flush releases every held message immediately (delivered via the
// release hook), e.g. when a test wants the tail of a quiet link.
func (im *Impairer) Flush() {
	im.mu.Lock()
	var pending []*heldMsg
	for _, l := range im.links {
		for _, h := range l.held {
			h.released = true
			pending = append(pending, h)
		}
		l.held = nil
	}
	im.stats.Released += int64(len(pending))
	release := im.release
	im.mu.Unlock()
	for _, h := range pending {
		h.deliverHeld(release)
	}
}
