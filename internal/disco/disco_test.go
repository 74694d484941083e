package disco

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"p2pmss/internal/metrics"
)

// loopback wires catalogs together in-process: sends become direct
// Deliver calls on the destination catalog. Deliveries run on the
// sender's goroutine, like the in-memory fabric's synchronous mode.
type loopback struct {
	mu   sync.Mutex
	cats map[string]*Catalog
}

func newLoopback() *loopback { return &loopback{cats: make(map[string]*Catalog)} }

func (lb *loopback) send(from string) func(to string, payload []byte) {
	return func(to string, payload []byte) {
		lb.mu.Lock()
		dst := lb.cats[to]
		lb.mu.Unlock()
		if dst != nil {
			dst.Deliver(from, payload)
		}
	}
}

func (lb *loopback) add(c *Catalog, addr string) {
	lb.mu.Lock()
	lb.cats[addr] = c
	lb.mu.Unlock()
}

func (lb *loopback) remove(addr string) {
	lb.mu.Lock()
	delete(lb.cats, addr)
	lb.mu.Unlock()
}

// startSwarm builds n interconnected catalogs bootstrapped off the
// first one, each serving the given contents.
func startSwarm(t *testing.T, lb *loopback, n int, contents func(i int) []string, interval, ttl time.Duration, reg *metrics.Registry) []*Catalog {
	t.Helper()
	cats := make([]*Catalog, n)
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("cat%02d", i)
		cids := contents(i)
		var boot []string
		if i > 0 {
			boot = []string{"cat00"}
		}
		c, err := NewCatalog(CatalogConfig{
			Self:      addr,
			Contents:  func() []string { return cids },
			Bootstrap: boot,
			Send:      lb.send(addr),
			Fanout:    3,
			Interval:  interval,
			TTL:       ttl,
			Seed:      77,
			Metrics:   reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		lb.add(c, addr)
		cats[i] = c
	}
	t.Cleanup(func() {
		for _, c := range cats {
			c.Close()
		}
	})
	return cats
}

func TestStaticDirectory(t *testing.T) {
	roster := []string{"n2", "n0", "n1"} // order is meaningful, not sorted
	s := NewStatic(roster)
	if got := s.Roster(); len(got) != 3 || got[0] != "n2" || got[2] != "n1" {
		t.Errorf("static roster reordered: %v", got)
	}
	if got := s.Lookup("anything"); len(got) != 3 || got[0] != "n2" {
		t.Errorf("static lookup = %v", got)
	}
	got := s.Lookup("x")
	got[0] = "mutated"
	if s.Lookup("x")[0] != "n2" {
		t.Error("lookup result aliases the roster")
	}
	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

// All catalogs converge to the full membership and per-content views.
func TestCatalogConverges(t *testing.T) {
	lb := newLoopback()
	reg := metrics.New()
	cats := startSwarm(t, lb, 8, func(i int) []string {
		return []string{fmt.Sprintf("content%d", i%2), "shared"}
	}, 10*time.Millisecond, 200*time.Millisecond, reg)
	for i, c := range cats {
		if err := c.WaitRoster(8, 5*time.Second); err != nil {
			t.Fatalf("catalog %d: %v", i, err)
		}
	}
	// Every converged node resolves the same sorted roster per content.
	want := cats[0].Lookup("shared")
	if len(want) != 8 {
		t.Fatalf("shared content served by %d peers, want 8", len(want))
	}
	for i, c := range cats {
		got := c.Lookup("shared")
		if len(got) != len(want) {
			t.Fatalf("catalog %d sees %d peers, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("catalog %d roster order diverged: %v vs %v", i, got, want)
			}
		}
		if got := c.Lookup("content0"); len(got) != 4 {
			t.Errorf("catalog %d: content0 served by %d peers, want 4", i, len(got))
		}
		if got := c.Lookup("no-such-content"); len(got) != 0 {
			t.Errorf("catalog %d: phantom peers %v for unknown content", i, got)
		}
	}
	// The disco_* series are populated (same identity returns the same
	// instrument, so this reads the catalog's own gauge).
	if v := reg.Gauge("disco_records", "node", "cat00").Value(); v != 8 {
		t.Errorf("disco_records{cat00} = %v, want 8", v)
	}
	if reg.Counter("disco_announce_received_total", "node", "cat00").Value() == 0 {
		t.Error("disco_announce_received_total never incremented")
	}
}

// A crashed node's records expire from every directory after the TTL:
// the catalog answers must shrink even though nobody was told about the
// crash (mid-announcement: the victim dies with its records still
// circulating in other nodes' pushes).
func TestCrashExpiresAfterTTL(t *testing.T) {
	lb := newLoopback()
	const ttl = 150 * time.Millisecond
	cats := startSwarm(t, lb, 6, func(int) []string { return []string{"movie"} },
		10*time.Millisecond, ttl, nil)
	for i, c := range cats {
		if err := c.WaitRoster(6, 5*time.Second); err != nil {
			t.Fatalf("catalog %d: %v", i, err)
		}
	}
	// Crash-stop catalog 5: no goodbye, its transport address vanishes.
	victim := "cat05"
	lb.remove(victim)
	cats[5].Close()
	deadline := time.Now().Add(10*ttl + time.Second)
	for _, c := range cats[:5] {
		for {
			alive := false
			for _, a := range c.Lookup("movie") {
				if a == victim {
					alive = true
				}
			}
			if !alive {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s still in %s's directory %s after crash", victim, c.cfg.Self, 10*ttl)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if got := len(c.Lookup("movie")); got != 5 {
			t.Errorf("%s: %d peers after crash, want 5", c.cfg.Self, got)
		}
	}
}

// A node joining a converged swarm learns the full catalog within a
// bounded number of gossip rounds (the welcome push makes it ~one round
// for its own view), and the swarm learns about it.
func TestLateJoinerConverges(t *testing.T) {
	lb := newLoopback()
	const interval = 10 * time.Millisecond
	cats := startSwarm(t, lb, 8, func(i int) []string {
		return []string{fmt.Sprintf("content%d", i)}
	}, interval, time.Second, nil)
	for i, c := range cats {
		if err := c.WaitRoster(8, 5*time.Second); err != nil {
			t.Fatalf("catalog %d: %v", i, err)
		}
	}
	start := time.Now()
	late, err := NewCatalog(CatalogConfig{
		Self:      "late",
		Contents:  func() []string { return []string{"latecontent"} },
		Bootstrap: []string{"cat03"},
		Send:      lb.send("late"),
		Fanout:    3,
		Interval:  interval,
		TTL:       time.Second,
		Seed:      77,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	lb.add(late, "late")
	// Bounded convergence: well under the TTL, within ~a few dozen
	// rounds even on a loaded machine.
	const rounds = 100
	if err := late.WaitRoster(9, rounds*interval); err != nil {
		t.Fatalf("late joiner never converged: %v", err)
	}
	t.Logf("late joiner converged in %s (%d rounds budget)", time.Since(start), rounds)
	for i, c := range cats {
		if err := c.WaitContent("latecontent", 1, 5*time.Second); err != nil {
			t.Errorf("catalog %d never learned the late joiner: %v", i, err)
		}
	}
}

// Announcements are signed by the shared seed: records forged under a
// different seed are rejected, leaving the directory untouched.
func TestBadSignatureRejected(t *testing.T) {
	c, err := NewCatalog(CatalogConfig{
		Self:      "honest",
		Contents:  func() []string { return []string{"movie"} },
		Send:      func(string, []byte) {},
		Bootstrap: []string{"sink"},
		Interval:  time.Hour,
		TTL:       time.Second,
		Seed:      1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// An attacker with the wrong seed announces a bogus peer.
	forged, err := NewCatalog(CatalogConfig{
		Self:      "attacker",
		Contents:  func() []string { return []string{"movie"} },
		Send:      func(string, []byte) {},
		Bootstrap: []string{"honest"},
		Interval:  time.Hour,
		TTL:       time.Second,
		Seed:      9999, // wrong shared secret
	})
	if err != nil {
		t.Fatal(err)
	}
	defer forged.Close()
	c.Deliver("attacker", forged.payload(true))
	if got := c.Lookup("movie"); len(got) != 1 || got[0] != "honest" {
		t.Errorf("forged record accepted: %v", got)
	}
	// The same record signed under the right seed is accepted.
	genuine, err := NewCatalog(CatalogConfig{
		Self:     "friend",
		Contents: func() []string { return []string{"movie"} },
		Send:     func(string, []byte) {},
		Interval: time.Hour,
		TTL:      time.Second,
		Seed:     1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer genuine.Close()
	c.Deliver("friend", genuine.payload(true))
	if got := c.Lookup("movie"); len(got) != 2 {
		t.Errorf("genuine record rejected: %v", got)
	}
	// Garbage payloads are rejected without panicking.
	c.Deliver("noise", []byte("{not json"))
}

// A version refresh replaces the record contents everywhere it reaches.
func TestNewerVersionWins(t *testing.T) {
	var catalog []string
	var mu sync.Mutex
	getContents := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), catalog...)
	}
	announcer, err := NewCatalog(CatalogConfig{
		Self: "announcer", Contents: getContents,
		Send: func(string, []byte) {}, Interval: time.Hour, TTL: time.Second, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer announcer.Close()
	watcher, err := NewCatalog(CatalogConfig{
		Self: "watcher", Send: func(string, []byte) {}, Interval: time.Hour, TTL: time.Second, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()

	mu.Lock()
	catalog = []string{"old"}
	mu.Unlock()
	p1 := announcer.payload(true)
	mu.Lock()
	catalog = []string{"new"}
	mu.Unlock()
	p2 := announcer.payload(true)

	// Deliver newer first, then the stale one: the stale must not win.
	watcher.Deliver("announcer", p2)
	watcher.Deliver("announcer", p1)
	if got := watcher.Lookup("new"); len(got) != 1 {
		t.Errorf("newer catalog lost: lookup(new) = %v", got)
	}
	if got := watcher.Lookup("old"); len(got) != 0 {
		t.Errorf("stale catalog resurrected: lookup(old) = %v", got)
	}
}

// A waiter blocks on the directory, not on a clock: WaitContent returns
// on the Deliver that brings the record it waits for, and WaitRoster
// reports what it had when its deadline passes.
func TestWaitWakesOnDeliver(t *testing.T) {
	quiet := func(self string, contents ...string) *Catalog {
		c, err := NewCatalog(CatalogConfig{Self: self, Contents: func() []string { return contents },
			Send: func(string, []byte) {}, Interval: time.Hour, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	a, b := quiet("a", "movie"), quiet("b", "other")
	done := make(chan error, 1)
	go func() { done <- b.WaitContent("movie", 1, time.Minute) }()
	select {
	case err := <-done:
		t.Fatalf("WaitContent returned before any announcement: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	b.Deliver("a", a.payload(false))
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitContent slept through the announcement")
	}
	if err := b.WaitRoster(3, 10*time.Millisecond); err == nil || !strings.Contains(err.Error(), "(have 2)") {
		t.Errorf("WaitRoster past its deadline: %v, want an error with (have 2)", err)
	}
}
