package content

import (
	"sync"
	"testing"
)

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	if s.Len() != 0 {
		t.Error("fresh store not empty")
	}
	a := New("alpha", []byte("aaaa"), 2)
	b := New("beta", []byte("bbbb"), 2)
	s.Put(a)
	s.Put(b)
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	got, ok := s.Get("alpha")
	if !ok || got != a {
		t.Error("Get(alpha) failed")
	}
	if _, ok := s.Get("gamma"); ok {
		t.Error("Get(gamma) found")
	}
	ids := s.IDs()
	if len(ids) != 2 || ids[0] != "alpha" || ids[1] != "beta" {
		t.Errorf("IDs = %v", ids)
	}
	if got, ok := s.Get("beta"); !ok || got != b {
		t.Error("Get(beta) failed")
	}
	// Replacing by same ID.
	b2 := New("beta", []byte("BBBB"), 2)
	s.Put(b2)
	if got, _ := s.Get("beta"); got != b2 {
		t.Error("Put did not replace")
	}
}

func TestStorePutNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Put(nil) did not panic")
		}
	}()
	NewStore().Put(nil)
}

func TestStoreConcurrent(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c := New("", []byte{byte(g), byte(i)}, 1)
				s.Put(c)
				s.Get(c.ID())
				s.IDs()
			}
		}(g)
	}
	wg.Wait()
	if s.Len() == 0 {
		t.Error("store empty after concurrent puts")
	}
}
