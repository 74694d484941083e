package gossip

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// queuedPush is one in-flight push in the synchronous test harness.
type queuedPush struct {
	to int
	p  Push
}

// runWithDuplicates drives the engine with a synchronous queue that
// delivers every push `copies` times — the harness for the duplicate-
// delivery hardening tests. It returns the engine after the queue
// drains.
func runWithDuplicates(t *testing.T, cfg Config, copies int) *Engine {
	t.Helper()
	var queue []queuedPush
	e, err := NewEngine(cfg, rand.New(rand.NewSource(cfg.Seed)), func(from, to int, p Push) {
		for c := 0; c < copies; c++ {
			queue = append(queue, queuedPush{to: to, p: p})
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Start(0)
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		e.Deliver(q.to, q.p)
	}
	return e
}

// With Rounds=0 (the paper's flooding style) a node forwards exactly
// once upon first infection, even when the network duplicates every
// push: re-deliveries must not trigger re-pushes.
func TestRoundsZeroForwardsOnceUnderDuplicateDelivery(t *testing.T) {
	cfg := Config{N: 40, Fanout: 4, Seed: 7}
	e := runWithDuplicates(t, cfg, 3)
	res := e.Result()
	if res.Infected < 2 {
		t.Fatalf("dissemination never left the origin: %+v", res)
	}
	for i := 0; i < cfg.N; i++ {
		switch {
		case e.Infected(i) && e.nodes[i].forwards != 1:
			t.Errorf("infected node %d forwarded %d times, want exactly 1", i, e.nodes[i].forwards)
		case !e.Infected(i) && e.nodes[i].forwards != 0:
			t.Errorf("uninfected node %d forwarded %d times", i, e.nodes[i].forwards)
		}
	}
	// Flooding with one forward per node caps the push count at
	// Infected * Fanout regardless of how many duplicates arrive.
	if max := int64(res.Infected) * int64(cfg.Fanout); res.Messages > max {
		t.Errorf("messages = %d exceeds one-forward bound %d", res.Messages, max)
	}
}

// Multi-round mode under duplication stays within the per-node budget:
// the first-infection push plus at most Rounds re-pushes, no matter how
// many duplicate deliveries arrive.
func TestRoundsBudgetUnderDuplicateDelivery(t *testing.T) {
	cfg := Config{N: 30, Fanout: 3, Rounds: 2, Seed: 11}
	e := runWithDuplicates(t, cfg, 2)
	for i := 0; i < cfg.N; i++ {
		if f := e.nodes[i].forwards; f > cfg.Rounds+1 {
			t.Errorf("node %d forwarded %d times, budget is %d", i, f, cfg.Rounds+1)
		}
	}
}

// Directional fanout 1 degenerates into a perfect sequential traversal:
// the accumulated known-set travels with the single push, so every hop
// lands on a fresh node. Coverage is exactly N with exactly N-1 pushes,
// for every seed — a structural property, not a statistical one.
func TestDirectionalFanoutOneIsPerfectChain(t *testing.T) {
	const n = 60
	for seed := int64(1); seed <= 8; seed++ {
		res, err := Run(Config{N: n, Fanout: 1, Seed: seed, Directional: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Infected != n || res.Messages != n-1 {
			t.Errorf("seed %d: infected=%d messages=%d, want %d and %d",
				seed, res.Infected, res.Messages, n, n-1)
		}
	}
}

// Coverage-vs-fanout properties of Directional mode, averaged over
// seeds: from fanout 2 up coverage is monotone non-decreasing and
// saturates past the [6] phase transition; message cost stays within
// the one-forward-per-node bound; and granting re-push rounds lifts
// coverage at every branching fanout (re-pushes are what heal the
// branches whose known-sets diverged).
func TestDirectionalCoverageVsFanout(t *testing.T) {
	n := 100
	fanouts := []int{2, 4, 8, 16}
	curve, err := CoverageCurve(n, fanouts, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(fanouts); i++ {
		lo, hi := curve[fanouts[i-1]], curve[fanouts[i]]
		// Means over 10 seeds: allow a small statistical wobble but no
		// real regression as the fanout doubles.
		if hi < lo-0.05 {
			t.Errorf("directional coverage dropped as fanout grew: f=%d %.3f -> f=%d %.3f",
				fanouts[i-1], lo, fanouts[i], hi)
		}
	}
	if curve[8] < 0.95 {
		t.Errorf("directional coverage %.3f at fanout 8 below saturation", curve[8])
	}
	if curve[2] >= curve[8] {
		t.Errorf("no coverage growth across fanouts: %.3f vs %.3f", curve[2], curve[8])
	}
	for _, f := range fanouts {
		var repush float64
		var msgs int64
		for seed := int64(1); seed <= 10; seed++ {
			r0, err := Run(Config{N: n, Fanout: f, Seed: seed, Directional: true})
			if err != nil {
				t.Fatal(err)
			}
			msgs += r0.Messages
			r2, err := Run(Config{N: n, Fanout: f, Seed: seed, Directional: true, Rounds: 2})
			if err != nil {
				t.Fatal(err)
			}
			repush += float64(r2.Infected)
		}
		if max := int64(10 * n * f); msgs > max {
			t.Errorf("fanout %d: %d pushes exceed one-forward bound %d", f, msgs, max)
		}
		if repush/float64(10*n) < curve[f]-0.02 {
			t.Errorf("fanout %d: re-push rounds reduced coverage: %.3f vs %.3f",
				f, repush/float64(10*n), curve[f])
		}
	}
}

// The live driver's directional sweep pushes to every peer exactly once
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
