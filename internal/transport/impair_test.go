package transport

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
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

// ge43 with Loss 0.2 loses 3/7 ≈ 43 % of the messages: the chain spends
// 2/7 of its time in the lossy Bad state, and 0.8·5/7 of the messages
// survive both draws.
var ge43 = BurstParams{PGoodToBad: 0.2, PBadToGood: 0.5, LossGood: 0, LossBad: 1}

// ge17 with Loss 0.05 loses 4/23 ≈ 17 % of the messages, as Loss 0.05
// with a three-message burst after every loss did: the chain spends 3/23
// of its time in Bad, four messages at a stretch on average.
var ge17 = BurstParams{PGoodToBad: 0.0375, PBadToGood: 0.25, LossGood: 0, LossBad: 1}

// A fixed seed reproduces the exact same loss/duplicate/reorder verdict
// sequence run after run: the determinism contract of the impairer.
func TestImpairerDeterministicForFixedSeed(t *testing.T) {
	cfg := Impairment{Seed: 42, Loss: 0.2, Burst: &ge43, Duplicate: 0.1, Reorder: 0.15, ReorderWindow: 3}
	first := script(cfg, "", 500)
	second := script(cfg, "", 500)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("run diverged at message %d: %q vs %q", i, first[i], second[i])
		}
	}
	diff := script(Impairment{Seed: 43, Loss: 0.2, Burst: &ge43, Duplicate: 0.1, Reorder: 0.15, ReorderWindow: 3}, "", 500)
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

// Observed loss tracks the configured rate, and a Gilbert–Elliott burst
// model yields runs of consecutive drops.
func TestImpairerLossRateAndBursts(t *testing.T) {
	const n = 5000
	im := NewImpairer(Impairment{Seed: 1, Loss: 0.05, Burst: &ge17}, nil)
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
	// Loss=0.05 on top of ge17's 3/23 of the time in Bad: 4/23 ≈ 17 %.
	rate := float64(drops) / n
	if rate < 0.10 || rate > 0.30 {
		t.Fatalf("observed loss rate %.3f implausible for Loss=0.05 and %+v", rate, ge17)
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
		// 2/11 ≈ 18 % lost: Bad holds 1/11 of the time, and 0.9·10/11 of
		// the messages survive both draws.
		f.SetImpairment(Impairment{Seed: 99, Loss: 0.1, Burst: &BurstParams{PGoodToBad: 0.05, PBadToGood: 0.5, LossBad: 1}, Duplicate: 0.05, Reorder: 0.1, ReorderWindow: 3})
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

// TestImpairerNoBurstVerdictsGolden pins SHA-256 digests of the verdict
// scripts, on three links each, of two impairments without a burst
// model; the second is live_udp_lossy's. The digests were recorded with
// the Impairer's own loss draw, before Link existed: the draw order
// without Burst (loss, then reorder, then duplicate, on the link's
// stream) must not move.
func TestImpairerNoBurstVerdictsGolden(t *testing.T) {
	for _, tc := range []struct {
		cfg  Impairment
		want string
	}{
		{Impairment{Seed: 7, Loss: 0.3, Duplicate: 0.2, Reorder: 0.1}, "96ec1f1c9a48c7a8fd944dfc45d0fcd47f87531cc8fd250349c1736bd053f818"},
		{Impairment{Seed: 3, Loss: 0.05, Reorder: 0.05, ReorderWindow: 4}, "63c6cbbbc153177ce8d8e82f001e7eca45a1721a44b43673aa43c0af368cf7c0"},
	} {
		var all []string
		for _, link := range []string{"", "1", "x"} {
			all = append(all, script(tc.cfg, link, 1000)...)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(all, "|")))); got != tc.want {
			t.Errorf("%+v: verdicts digest %s, want %s", tc.cfg, got, tc.want)
		}
	}
}

// The chain steps on every message, also on one the independent draw has
// already lost: with certain loss, this chain still flips state each time.
func TestLinkChainStepsOnEveryMessage(t *testing.T) {
	l := NewLink(1, 1, &BurstParams{PGoodToBad: 1, PBadToGood: 1})
	for i := 1; i <= 10; i++ {
		if !l.Lost() {
			t.Fatalf("message %d survived certain loss", i)
		}
		if want := i%2 == 1; l.bad != want {
			t.Fatalf("after message %d the chain is bad=%v, want %v", i, l.bad, want)
		}
	}
}

// Validate rejects every probability outside [0, 1], NaN included, and
// Enabled counts a burst model.
func TestImpairmentValidate(t *testing.T) {
	ok := Impairment{Loss: 0.1, Burst: &BurstParams{PGoodToBad: 0.01, PBadToGood: 0.2, LossBad: 0.5}, Duplicate: 0.1, Reorder: 0.1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid impairment rejected: %v", err)
	}
	fields := []func(*Impairment) *float64{
		func(im *Impairment) *float64 { return &im.Loss },
		func(im *Impairment) *float64 { return &im.Duplicate },
		func(im *Impairment) *float64 { return &im.Reorder },
		func(im *Impairment) *float64 { return &im.Burst.PGoodToBad },
		func(im *Impairment) *float64 { return &im.Burst.PBadToGood },
		func(im *Impairment) *float64 { return &im.Burst.LossGood },
		func(im *Impairment) *float64 { return &im.Burst.LossBad },
	}
	for i, field := range fields {
		for _, v := range []float64{-0.1, 1.5, math.NaN()} {
			im := ok
			b := *ok.Burst
			im.Burst = &b
			*field(&im) = v
			if err := im.Validate(); err == nil {
				t.Errorf("field %d = %v accepted", i, v)
			}
		}
	}
	if !(Impairment{Burst: &BurstParams{}}).Enabled() {
		t.Error("an impairment with only a burst model is not Enabled")
	}
}

func TestParseBurst(t *testing.T) {
	b, err := ParseBurst("0.01, 0.2,0,0.5")
	if err != nil || *b != (BurstParams{PGoodToBad: 0.01, PBadToGood: 0.2, LossGood: 0, LossBad: 0.5}) {
		t.Fatalf("ParseBurst = %+v, %v", b, err)
	}
	for _, bad := range []string{"", "3", "0.1,0.2,0.3", "0.1,0.2,0.3,x", "0.1,0.2,0.3,0.4,0.5"} {
		if _, err := ParseBurst(bad); err == nil {
			t.Errorf("ParseBurst(%q) accepted", bad)
		}
	}
}

func BenchmarkLinkLost(b *testing.B) {
	l := NewLink(1, 0.01, &BurstParams{PGoodToBad: 0.05, PBadToGood: 0.3, LossGood: 0.001, LossBad: 0.5})
	for i := 0; i < b.N; i++ {
		l.Lost()
	}
}
