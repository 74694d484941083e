package gossip

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// The live loop's directional sweep pushes to every peer exactly once
// before resetting, and the same seed selects the same targets.
func TestLiveDirectionalSweep(t *testing.T) {
	peers := []string{"a", "b", "c", "d", "e", "f", "g"}
	newLoop := func(record func(to string)) *Live {
		return &Live{
			cfg: LiveConfig{
				Self:    "a",
				Peers:   func() []string { return peers },
				Payload: func() []byte { return []byte("x") },
				Send:    func(to string, _ []byte) { record(to) },
				Fanout:  2,
				Seed:    42,
			},
			rng:    rand.New(rand.NewSource(42)),
			pushed: make(map[string]bool),
		}
	}
	var got []string
	l := newLoop(func(to string) { got = append(got, to) })
	for r := 0; r < 3; r++ { // ceil(6/2) = 3 rounds cover all six others
		l.round()
	}
	if len(got) != 6 {
		t.Fatalf("3 rounds at fanout 2 sent %d pushes, want 6: %v", len(got), got)
	}
	seen := make(map[string]int)
	for _, to := range got {
		seen[to]++
		if to == "a" {
			t.Errorf("pushed to self")
		}
	}
	for _, p := range peers[1:] {
		if seen[p] != 1 {
			t.Errorf("directional sweep hit %q %d times, want exactly once", p, seen[p])
		}
	}
	// Exhausting the view resets the sweep instead of going silent.
	l.round()
	if len(got) != 8 {
		t.Errorf("post-reset round sent %d total pushes, want 8", len(got))
	}
	// Determinism: a fresh loop with the same seed replays the sweep.
	var replay []string
	l2 := newLoop(func(to string) { replay = append(replay, to) })
	for r := 0; r < 4; r++ {
		l2.round()
	}
	if len(replay) != len(got) {
		t.Fatalf("replay diverged in length: %d vs %d", len(replay), len(got))
	}
	for i := range got {
		if replay[i] != got[i] {
			t.Fatalf("same seed diverged at push %d: %v vs %v", i, got, replay)
		}
	}
}

// StartLive ticks rounds on the wall clock and Close stops them.
func TestLiveLoopTicksAndCloses(t *testing.T) {
	var mu sync.Mutex
	sends := 0
	l, err := StartLive(LiveConfig{
		Self:     "self",
		Peers:    func() []string { return []string{"self", "other"} },
		Payload:  func() []byte { return []byte("p") },
		Send:     func(string, []byte) { mu.Lock(); sends++; mu.Unlock() },
		Fanout:   1,
		Interval: 5 * time.Millisecond,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := sends
		mu.Unlock()
		if n >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d sends before deadline", n)
		}
		time.Sleep(time.Millisecond)
	}
	l.Close()
	mu.Lock()
	after := sends
	mu.Unlock()
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	final := sends
	mu.Unlock()
	if final != after {
		t.Errorf("rounds kept firing after Close: %d -> %d", after, final)
	}
	if err := l.Close(); err != nil { // idempotent
		t.Errorf("second Close: %v", err)
	}
}

func TestStartLiveValidation(t *testing.T) {
	if _, err := StartLive(LiveConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}
