package coord

import (
	"fmt"
	"math"
	"testing"

	"p2pmss/internal/des"
	"p2pmss/internal/flight"
	"p2pmss/internal/overlay"
)

// TestLinkModelGolden pins the link model's draw order: one seeded
// packet-plane run per protocol with jitter, Bernoulli loss, bursts, a
// CrashAt crash and a churn crash and rejoin. Every loss, burst and jitter
// draw moves the network counters and the leaf's receipts, so a change in
// their order or in the crash scheduling shows here.
func TestLinkModelGolden(t *testing.T) {
	want := map[Protocol]string{
		DCoP: "net={Sent:708 Delivered:629 Dropped:74 ToCrashed:5} ctl=44 rounds=3 rate=1.980000 delivered=299",
		TCoP: "net={Sent:600 Delivered:540 Dropped:54 ToCrashed:6} ctl=76 rounds=6 rate=1.575000 delivered=297",
	}
	for _, proto := range []Protocol{DCoP, TCoP} {
		cfg := DefaultConfig()
		cfg.N = 12
		cfg.H = 4
		cfg.Interval = 2
		cfg.DataPlane = true
		cfg.Loop = false
		cfg.TrackDelivery = true
		cfg.ContentLen = 300
		cfg.Rate = 10
		cfg.Settle = 2
		cfg.Window = 20
		cfg.Seed = 5
		cfg.Retries = 2
		cfg.LossProb = 0.05
		cfg.Burst = &BurstParams{PGoodToBad: 0.02, PBadToGood: 0.3, LossGood: 0, LossBad: 0.6}
		cfg.CrashPeers = []overlay.PeerID{3}
		cfg.CrashAt = 2.5
		cfg.Churn = &ChurnSchedule{Events: []ChurnEvent{
			{At: 1.5, Peer: 7},
			{At: 9, Peer: 7, Join: true},
		}}
		res, err := Run(proto, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("net=%+v ctl=%d rounds=%d rate=%.6f delivered=%d",
			res.NetStats, res.ControlPackets, res.Rounds, res.ReceiptRate, res.DeliveredData)
		if got != want[proto] {
			t.Errorf("%s:\n got %s\nwant %s", proto, got, want[proto])
		}
	}
}

// testNet is a bare network of cfg.N+1 nodes whose deliveries land in a
// log: what arrived, where, and when.
type testNet struct {
	*network
	eng *des.Engine
	got []any
	to  []int
	at  []float64
}

func newTestNet(cfg Config) *testNet {
	t := &testNet{eng: des.New(cfg.Seed)}
	t.network = newNetwork(t.eng, &cfg, func(_, to int, m any) {
		t.got = append(t.got, m)
		t.to = append(t.to, to)
		t.at = append(t.at, t.eng.Now())
	})
	return t
}

func TestDeliveryWithLatency(t *testing.T) {
	nw := newTestNet(Config{N: 2, Delta: 0.5})
	nw.send(0, 1, "hello")
	nw.eng.Run()
	if len(nw.got) != 1 || nw.got[0] != "hello" || nw.to[0] != 1 {
		t.Fatalf("got %v at nodes %v", nw.got, nw.to)
	}
	if nw.at[0] != 0.5 {
		t.Errorf("delivered at %v, want 0.5", nw.at[0])
	}
	if st := nw.stats; st != (NetStats{Sent: 1, Delivered: 1}) {
		t.Errorf("stats = %+v", st)
	}
}

func TestLoss(t *testing.T) {
	nw := newTestNet(Config{N: 2, LossProb: 0.5, Seed: 7})
	const n = 2000
	for i := 0; i < n; i++ {
		nw.send(0, 1, i)
	}
	nw.eng.Run()
	st := nw.stats
	if st.Sent != n || st.Delivered+st.Dropped != n || int(st.Delivered) != len(nw.got) {
		t.Fatalf("stats = %+v, %d delivered", st, len(nw.got))
	}
	if frac := float64(st.Dropped) / n; frac < 0.4 || frac > 0.6 {
		t.Errorf("loss fraction = %v, want ≈0.5", frac)
	}
}

// A channel in its burst state loses what it carries; back in the good
// state (here lossless) it delivers again.
func TestBurstLossHook(t *testing.T) {
	nw := newTestNet(Config{N: 2, Burst: &BurstParams{LossBad: 1}})
	nw.channel(0, 1).bad = true
	nw.send(0, 1, "a")
	nw.channel(0, 1).bad = false
	nw.send(0, 1, "b")
	nw.eng.Run()
	if len(nw.got) != 1 || nw.got[0] != "b" {
		t.Errorf("got = %v", nw.got)
	}
	if nw.stats.Dropped != 1 {
		t.Errorf("dropped %d, want 1", nw.stats.Dropped)
	}
}

func TestCrash(t *testing.T) {
	nw := newTestNet(Config{N: 2})
	nw.crashed[1] = true
	nw.send(0, 1, "to crashed")   // discarded at delivery
	nw.send(1, 2, "from crashed") // ignored at send
	nw.eng.Run()
	if len(nw.got) != 0 {
		t.Errorf("got = %v", nw.got)
	}
	if st := nw.stats; st != (NetStats{Sent: 1, ToCrashed: 1}) {
		t.Errorf("stats = %+v", st)
	}
	nw.crashed[1] = false
	nw.send(0, 1, "after rejoin")
	nw.eng.Run()
	if len(nw.got) != 1 {
		t.Errorf("after rejoin got = %v", nw.got)
	}
}

// A message in flight when the destination crashes is lost: a crash
// takes effect at delivery time.
func TestCrashInFlight(t *testing.T) {
	nw := newTestNet(Config{N: 2, Delta: 2})
	nw.send(0, 1, "x")
	nw.eng.After(1, func() { nw.crashed[1] = true })
	nw.eng.Run()
	if len(nw.got) != 0 || nw.stats.ToCrashed != 1 {
		t.Errorf("got = %v, stats %+v", nw.got, nw.stats)
	}
}

func TestJitterBounds(t *testing.T) {
	nw := newTestNet(Config{N: 2, Delta: 1, Jitter: 0.5, Seed: 3})
	for i := 0; i < 100; i++ {
		nw.send(0, 1, i)
	}
	nw.eng.Run()
	for _, at := range nw.at {
		if at < 1 || at >= 1.5 {
			t.Fatalf("delivery at %v outside [1,1.5)", at)
		}
	}
}

// TestSendAllocs pins the pooled delivery: once warmed, a send and its
// delivery allocate nothing.
func TestSendAllocs(t *testing.T) {
	cfg := Config{N: 1, Delta: 1, Jitter: 0.5, Seed: 1}
	eng := des.New(cfg.Seed)
	got := 0
	nw := newNetwork(eng, &cfg, func(int, int, any) { got++ })
	var msg any = "x"
	send := func() {
		for i := 0; i < 8; i++ {
			nw.send(0, 1, msg)
		}
		eng.Run()
	}
	send()
	if n := testing.AllocsPerRun(100, send); n != 0 {
		t.Errorf("warm send + delivery: %v allocs, want 0", n)
	}
	if got != 8*102 {
		t.Errorf("delivered %d, want %d", got, 8*102)
	}
}

// BenchmarkSendDeliver is one simulated message per op: 64 messages
// circulate around a ring of 64 nodes over jittery links, each delivery
// forwarding its message to the next node.
func BenchmarkSendDeliver(b *testing.B) {
	const nodes = 64
	cfg := Config{N: nodes - 1, Delta: 1, Jitter: 0.5, Seed: 1}
	eng := des.New(cfg.Seed)
	left := 0
	var nw *network
	nw = newNetwork(eng, &cfg, func(_, to int, m any) {
		if left > 0 {
			left--
			nw.send(to, (to+1)%nodes, m)
		}
	})
	var msg any = "x"
	circulate := func(n int) {
		left = n
		for i := 0; i < nodes && left > 0; i++ {
			left--
			nw.send(i, (i+1)%nodes, msg)
		}
		eng.Run()
	}
	circulate(nodes) // fills the delivery pool
	b.ReportAllocs()
	b.ResetTimer()
	circulate(b.N)
}

// A burst probability outside [0, 1], NaN included, is an error from Run
// (it used to panic inside the run, in a sweep worker's goroutine).
func TestGilbertElliottValidation(t *testing.T) {
	for field := 0; field < 4; field++ {
		for _, v := range []float64{-0.1, 1.5, math.NaN()} {
			probs := [4]float64{0.01, 0.2, 0, 0.5}
			probs[field] = v
			cfg := DefaultConfig()
			cfg.N, cfg.H = 10, 3
			cfg.Burst = &BurstParams{PGoodToBad: probs[0], PBadToGood: probs[1], LossGood: probs[2], LossBad: probs[3]}
			if _, err := Run(DCoP, cfg); err == nil {
				t.Errorf("burst %+v accepted", *cfg.Burst)
			}
		}
	}
}

// newChannel is a lone burst channel on its own stream.
func newChannel(pGB, pBG, lossGood, lossBad float64, seed int64) *burstChannel {
	return &burstChannel{p: &BurstParams{pGB, pBG, lossGood, lossBad}, rng: des.NewRand(seed)}
}

func TestGilbertElliottStationaryLoss(t *testing.T) {
	// pGB=0.1, pBG=0.5 → stationary bad fraction = 0.1/(0.1+0.5) ≈ 1/6.
	// With lossGood=0, lossBad=1, expected loss ≈ 16.7%.
	c := newChannel(0.1, 0.5, 0, 1, 42)
	const n = 200000
	lost := 0
	for i := 0; i < n; i++ {
		if c.lost() {
			lost++
		}
	}
	if rate := float64(lost) / n; rate < 0.12 || rate > 0.22 {
		t.Errorf("loss rate %.3f, want ≈0.167", rate)
	}
}

func TestGilbertElliottBurstiness(t *testing.T) {
	// Losses should cluster: with sticky states, consecutive-loss runs
	// are much longer than under i.i.d. loss of the same rate.
	c := newChannel(0.01, 0.2, 0, 1, 7)
	var runs, runLen, maxRun int
	for i := 0; i < 100000; i++ {
		if !c.lost() {
			runLen = 0
			continue
		}
		if runLen == 0 {
			runs++
		}
		runLen++
		maxRun = max(maxRun, runLen)
	}
	if runs == 0 {
		t.Fatal("no loss runs")
	}
	if maxRun < 5 {
		t.Errorf("max burst %d too short for a bursty channel", maxRun)
	}
}

func TestGilbertElliottNeverLoses(t *testing.T) {
	c := newChannel(0.5, 0.5, 0, 0, 1)
	for i := 0; i < 1000; i++ {
		if c.lost() {
			t.Fatal("lossless channel dropped")
		}
	}
}

func BenchmarkGilbertElliott(b *testing.B) {
	c := newChannel(0.05, 0.3, 0.001, 0.5, 1)
	for i := 0; i < b.N; i++ {
		c.lost()
	}
}

// Every directed channel has its own burst state on its own stream,
// seeded Seed+7919+from·100003+to, and looking a channel up does not
// step it.
func TestChannelSetIndependence(t *testing.T) {
	burst := BurstParams{PGoodToBad: 0.05, PBadToGood: 0.3, LossBad: 1}
	nw := newTestNet(Config{N: 3, Seed: 9, Burst: &burst})
	a, b := nw.channel(0, 1), nw.channel(2, 3)
	if a == b || nw.channel(0, 1) != a || nw.channel(1, 0) == a {
		t.Fatal("channels shared")
	}
	refA := newChannel(0.05, 0.3, 0, 1, 9+7919+1)
	refB := newChannel(0.05, 0.3, 0, 1, 9+7919+2*100003+3)
	same := true
	for i := 0; i < 5000; i++ {
		la, lb := a.lost(), b.lost()
		if la != refA.lost() || lb != refB.lost() {
			t.Fatalf("message %d: a channel left its seeded stream", i)
		}
		same = same && la == lb
	}
	if same {
		t.Error("suspiciously identical channels")
	}
}

// A churn schedule is checked against the overlay, and its events run as
// crashes and rejoins at their times, each noted on the peer's flight
// track.
func TestChurnScheduleValidate(t *testing.T) {
	for _, e := range []ChurnEvent{{At: -1, Peer: 1}, {At: math.NaN(), Peer: 1}, {At: 1, Peer: -1}, {At: 1, Peer: 4}} {
		s := ChurnSchedule{Events: []ChurnEvent{{At: 1, Peer: 0}, e}}
		if err := s.validate(4); err == nil {
			t.Errorf("event %+v validated", e)
		}
	}

	cfg := DefaultConfig()
	cfg.N, cfg.H = 4, 2
	cfg.Obs.Flight = flight.NewSet(16)
	cfg.Churn = &ChurnSchedule{Events: []ChurnEvent{
		{At: 5, Peer: 2},
		{At: 9, Peer: 2, Join: true},
	}}
	r, err := newRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.eng.RunUntil(6)
	if !r.nw.crashed[2] {
		t.Error("peer did not crash on schedule")
	}
	r.eng.RunUntil(10)
	if r.nw.crashed[2] {
		t.Error("peer did not rejoin on schedule")
	}
	if notes := countTypes(cfg.Obs.Flight.Events()); notes["crash"] != 1 || notes["rejoin"] != 1 {
		t.Errorf("flight notes %v, want one crash and one rejoin", notes)
	}
}
