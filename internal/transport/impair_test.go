package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// admit runs m through im and returns what came out, in order.
func admit(im *Impairer, from, to string, m Msg) (due []Msg, dropped bool) {
	dropped = im.Admit(from, to, m, func(d Msg) { due = append(due, d) })
	return due, dropped
}

// script runs n messages through a fresh impairer on link a→b and
// returns the verdict trace: for each admitted message, which messages
// came out (by their Type tag) and whether it was dropped.
func script(cfg Impairment, link string, n int) []string {
	im := NewImpairer(cfg, nil)
	var trace []string
	for i := 0; i < n; i++ {
		due, dropped := admit(im, "a"+link, "b"+link, Msg{Type: fmt.Sprintf("m%d", i)})
		ev := ""
		if dropped {
			ev = "X"
		}
		for _, d := range due {
			ev += d.Type + ";"
		}
		trace = append(trace, ev)
	}
	return trace
}

// A fixed seed reproduces the exact same loss/duplicate/reorder verdict
// sequence run after run — the determinism contract of the tentpole.
func TestImpairerDeterministicForFixedSeed(t *testing.T) {
	cfg := Impairment{Seed: 42, Loss: 0.2, BurstLen: 2, Duplicate: 0.1, Reorder: 0.15, ReorderWindow: 3}
	first := script(cfg, "", 500)
	second := script(cfg, "", 500)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("run diverged at message %d: %q vs %q", i, first[i], second[i])
		}
	}
	diff := script(Impairment{Seed: 43, Loss: 0.2, BurstLen: 2, Duplicate: 0.1, Reorder: 0.15, ReorderWindow: 3}, "", 500)
	same := true
	for i := range first {
		if first[i] != diff[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed 42 and 43 produced identical traces; RNG not seeded")
	}
}

// Each link's verdict stream depends only on the seed and that link's
// own message order — interleaving traffic on other links between its
// messages must not perturb it.
func TestImpairerPerLinkIsolation(t *testing.T) {
	cfg := Impairment{Seed: 7, Loss: 0.3, Duplicate: 0.2, Reorder: 0.1}
	solo := script(cfg, "1", 200)
	im := NewImpairer(cfg, nil)
	var interleaved []string
	for i := 0; i < 200; i++ {
		// Noise on an unrelated link before every admit.
		admit(im, "noiseFrom", "noiseTo", Msg{Type: "noise"})
		due, dropped := admit(im, "a1", "b1", Msg{Type: fmt.Sprintf("m%d", i)})
		ev := ""
		if dropped {
			ev = "X"
		}
		for _, d := range due {
			ev += d.Type + ";"
		}
		interleaved = append(interleaved, ev)
	}
	for i := range solo {
		if solo[i] != interleaved[i] {
			t.Fatalf("link verdicts diverged at message %d with cross-traffic: %q vs %q", i, solo[i], interleaved[i])
		}
	}
}

// Observed loss tracks the configured rate, and BurstLen yields runs of
// consecutive drops.
func TestImpairerLossRateAndBursts(t *testing.T) {
	const n = 5000
	im := NewImpairer(Impairment{Seed: 1, Loss: 0.05, BurstLen: 3}, nil)
	drops, runLen, maxRun := 0, 0, 0
	for i := 0; i < n; i++ {
		_, dropped := admit(im, "a", "b", Msg{})
		if dropped {
			drops++
			runLen++
			if runLen > maxRun {
				maxRun = runLen
			}
		} else {
			runLen = 0
		}
	}
	// Loss=0.05 with BurstLen=3 quadruples each loss event: ~18% overall.
	rate := float64(drops) / n
	if rate < 0.10 || rate > 0.30 {
		t.Fatalf("observed loss rate %.3f implausible for Loss=0.05 BurstLen=3", rate)
	}
	if maxRun < 4 {
		t.Fatalf("longest drop run %d; bursts of >=4 expected", maxRun)
	}
	if got := im.Stats().Dropped; got != int64(drops) {
		t.Fatalf("Stats().Dropped = %d, want %d", got, drops)
	}
}

// A held message is released after at most ReorderWindow subsequent
// messages overtake it, and arrives after the message that released it.
func TestImpairerReorderWindowRelease(t *testing.T) {
	im := NewImpairer(Impairment{Seed: 3, Reorder: 0.25, ReorderWindow: 4}, nil)
	pending := map[string]int{} // held type → messages admitted since hold
	var order []string
	for i := 0; i < 2000; i++ {
		typ := fmt.Sprintf("m%d", i)
		due, _ := admit(im, "a", "b", Msg{Type: typ})
		for k := range pending {
			pending[k]++
		}
		held := true
		for _, d := range due {
			order = append(order, d.Type)
			if d.Type == typ {
				held = false
			} else {
				age, ok := pending[d.Type]
				if !ok {
					t.Fatalf("released %q which was never held", d.Type)
				}
				if age > 4 {
					t.Fatalf("%q overtaken by %d messages, window is 4", d.Type, age)
				}
				delete(pending, d.Type)
			}
		}
		if held {
			pending[typ] = 0
		}
	}
	st := im.Stats()
	if st.Held == 0 {
		t.Fatal("no messages were ever held; Reorder=0.25 over 2000 messages")
	}
	if st.Held-st.Released != int64(len(pending)) {
		t.Fatalf("held %d released %d but %d still pending", st.Held, st.Released, len(pending))
	}
	if len(order) == 0 {
		t.Fatal("nothing delivered")
	}
}

// Duplicate emits the same message twice back to back.
func TestImpairerDuplicate(t *testing.T) {
	im := NewImpairer(Impairment{Seed: 5, Duplicate: 0.3}, nil)
	dups := 0
	for i := 0; i < 1000; i++ {
		due, _ := admit(im, "a", "b", Msg{Type: fmt.Sprintf("m%d", i)})
		if len(due) == 2 {
			if due[0].Type != due[1].Type {
				t.Fatalf("duplicate pair differs: %q vs %q", due[0].Type, due[1].Type)
			}
			dups++
		}
	}
	if dups < 200 || dups > 400 {
		t.Fatalf("%d duplicates out of 1000 at rate 0.3", dups)
	}
	if got := im.Stats().Duplicated; got != int64(dups) {
		t.Fatalf("Stats().Duplicated = %d, want %d", got, dups)
	}
}

// MaxHold force-releases held messages through the release hook when no
// later traffic overtakes them, so a quiet link cannot strand a reorder
// hold forever.
func TestImpairerMaxHoldReleases(t *testing.T) {
	var mu sync.Mutex
	var released []string
	im := NewImpairer(
		Impairment{Seed: 2, Reorder: 1.0, ReorderWindow: 100, MaxHold: 20 * time.Millisecond},
		func(to string, m Msg) {
			mu.Lock()
			released = append(released, m.Type)
			mu.Unlock()
		})
	trafficReleased := 0
	for i := 0; i < 5; i++ {
		due, dropped := admit(im, "a", "b", Msg{Type: fmt.Sprintf("m%d", i)})
		// Reorder=1.0: the current message is always held; an earlier hold
		// may ride out here if its window counter ran down.
		if dropped {
			t.Fatalf("message %d dropped with Loss=0", i)
		}
		trafficReleased += len(due)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(released)
		mu.Unlock()
		if n+trafficReleased == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/5 held messages released (MaxHold hook %d, traffic %d)", n+trafficReleased, n, trafficReleased)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := im.Stats(); st.Held != 5 || st.Released != 5 {
		t.Fatalf("stats %+v, want Held=5 Released=5", st)
	}
}

// Flush drains every held message exactly once, and the MaxHold timer
// firing afterwards must not double-release.
func TestImpairerFlushIdempotentWithMaxHold(t *testing.T) {
	var mu sync.Mutex
	count := map[string]int{}
	im := NewImpairer(
		Impairment{Seed: 2, Reorder: 1.0, ReorderWindow: 100, MaxHold: 10 * time.Millisecond},
		func(to string, m Msg) {
			mu.Lock()
			count[m.Type]++
			mu.Unlock()
		})
	for i := 0; i < 8; i++ {
		admit(im, "a", "b", Msg{Type: fmt.Sprintf("m%d", i)})
	}
	im.Flush()
	time.Sleep(50 * time.Millisecond) // let stale MaxHold timers fire
	mu.Lock()
	defer mu.Unlock()
	if len(count) != 8 {
		t.Fatalf("flushed %d distinct messages, want 8", len(count))
	}
	for k, n := range count {
		if n != 1 {
			t.Fatalf("%q released %d times", k, n)
		}
	}
}

// On the fabric with a fixed impairment seed, the delivered message
// sequence is byte-for-byte reproducible — the acceptance criterion for
// deterministic in-process injection.
func TestFabricImpairmentDeterministic(t *testing.T) {
	run := func() []string {
		f := NewFabric()
		var mu sync.Mutex
		var got []string
		f.Endpoint("dst", func(m Msg) {
			mu.Lock()
			got = append(got, m.Type)
			mu.Unlock()
		})
		src := f.Endpoint("src", func(Msg) {})
		f.SetImpairment(Impairment{Seed: 99, Loss: 0.1, BurstLen: 1, Duplicate: 0.05, Reorder: 0.1, ReorderWindow: 3})
		for i := 0; i < 400; i++ {
			if err := src.Send("dst", Msg{Type: fmt.Sprintf("m%d", i)}); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		f.Wait()
		mu.Lock()
		defer mu.Unlock()
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs delivered %d vs %d messages", len(a), len(b))
	}
	if len(a) == 400 {
		t.Fatal("no message was impaired at Loss=0.1 over 400 sends")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery order diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
}
