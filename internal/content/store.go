package content

import (
	"fmt"
	"sort"
	"sync"
)

// Store is a contents peer's catalog: the multimedia contents it can
// serve, keyed by content ID. The MSS model's premise is that contents
// are "distributed to peers in various ways like downloading and caching"
// (§2) — a peer may hold many contents and serve any of them. Store is
// safe for concurrent use (the live runtime reads it from several
// goroutines).
type Store struct {
	mu   sync.RWMutex
	byID map[string]*Content
}

// NewStore returns an empty catalog.
func NewStore() *Store {
	return &Store{byID: make(map[string]*Content)}
}

// Put adds (or replaces) a content.
func (s *Store) Put(c *Content) {
	if c == nil {
		panic("content: Put(nil)")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byID[c.ID()] = c
}

// Get returns the content with the given ID.
func (s *Store) Get(id string) (*Content, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.byID[id]
	return c, ok
}

// MustGet returns the content or an error naming the missing ID.
func (s *Store) MustGet(id string) (*Content, error) {
	if c, ok := s.Get(id); ok {
		return c, nil
	}
	return nil, fmt.Errorf("content: %q not in store", id)
}

// Remove deletes a content from the catalog and drops what the content
// cached of its enhanced sequences, so a holder that keeps the *Content
// does not keep size/h parity bytes per interval it once served.
func (s *Store) Remove(id string) {
	s.mu.Lock()
	c := s.byID[id]
	delete(s.byID, id)
	s.mu.Unlock()
	if c != nil {
		c.dropDerived()
	}
}

// IDs lists the held content IDs in sorted order.
func (s *Store) IDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.byID))
	for id := range s.byID {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of held contents.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byID)
}
