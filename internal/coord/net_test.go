package coord

import (
	"fmt"
	"math"
	"testing"

	"p2pmss/internal/des"
	"p2pmss/internal/flight"
	"p2pmss/internal/metrics"
	"p2pmss/internal/seq"
	"p2pmss/internal/transport"
)

// newNetwork builds cfg's network of cfg.N+1 nodes on eng, handing every
// delivery to receive, as a run's arena does.
func newNetwork(eng *des.Engine, cfg *Config, receive func(from, to int, m any)) *network {
	n := &network{eng: eng, cfg: cfg, receive: receive}
	n.setUp()
	return n
}

// TestLinkModelGolden pins the link model's draw order: one seeded
// packet-plane run per protocol with jitter, Bernoulli loss, bursts, the
// crash of one peer and the crash and rejoin of another. Every loss, burst and jitter
// draw moves the network counters and the leaf's receipts, so a change in
// their order or in the crash scheduling shows here.
func TestLinkModelGolden(t *testing.T) {
	want := map[Protocol]string{
		DCoP: "net={Sent:720 Delivered:627 Dropped:88 ToCrashed:5} ctl=44 rounds=3 rate=1.965000 delivered=296",
		TCoP: "net={Sent:566 Delivered:505 Dropped:55 ToCrashed:6} ctl=74 rounds=8 rate=1.495000 delivered=285",
	}
	for _, proto := range []Protocol{DCoP, TCoP} {
		cfg := DefaultConfig()
		cfg.N = 12
		cfg.H = 4
		cfg.Interval = 2
		cfg.DataPlane = true
		cfg.Loop = false
		cfg.ContentLen = 300
		cfg.Rate = 10
		cfg.Settle = 2
		cfg.Window = 20
		cfg.Seed = 5
		cfg.Retries = 2
		cfg.LossProb = 0.05
		cfg.Burst = &transport.BurstParams{PGoodToBad: 0.02, PBadToGood: 0.3, LossGood: 0, LossBad: 0.6}
		cfg.Churn = &ChurnSchedule{Events: []ChurnEvent{
			{At: 2.5, Peer: 3},
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

// TestNetBooksBalance: once a finite packet-plane run has drained, every
// message sent was delivered, dropped by its link or discarded at a
// crashed peer, and the simnet_* series say what NetStats says. The run
// is lossy, bursty and churned, and repairs, so every way out of the
// network is taken, by data packets and coordination messages alike.
func TestNetBooksBalance(t *testing.T) {
	for _, proto := range []Protocol{DCoP, TCoP} {
		cfg := DefaultConfig()
		cfg.N, cfg.H, cfg.Interval, cfg.Seed = 12, 4, 2, 5
		cfg.DataPlane, cfg.Loop, cfg.Repair = true, false, true
		cfg.ContentLen, cfg.Rate = 300, 10
		cfg.LossProb = 0.05
		cfg.Burst = &transport.BurstParams{PGoodToBad: 0.02, PBadToGood: 0.3, LossBad: 0.6}
		cfg.Churn = &ChurnSchedule{Events: []ChurnEvent{{At: 2.5, Peer: 3}, {At: 1.5, Peer: 7}, {At: 9, Peer: 7, Join: true}}}
		reg := metrics.New()
		cfg.Obs.Metrics = reg
		res, err := Run(proto, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := res.NetStats
		if st.Dropped == 0 || st.ToCrashed == 0 || res.RepairRequests == 0 {
			t.Fatalf("%s: %+v after %d repair requests: the run takes not every way out of the network", proto, st, res.RepairRequests)
		}
		if st.Sent != st.Delivered+st.Dropped+st.ToCrashed {
			t.Errorf("%s: %+v: sent is not delivered + dropped + to crashed", proto, st)
		}
		snap := reg.Snapshot()
		got := map[string]float64{}
		for _, c := range snap.Counters {
			got[c.Name] = float64(c.Value)
		}
		for _, g := range snap.Gauges {
			got[g.Name] = g.Value
		}
		want := map[string]float64{
			"simnet_messages_sent_total":       float64(st.Sent),
			"simnet_messages_delivered_total":  float64(st.Delivered),
			"simnet_messages_dropped_total":    float64(st.Dropped),
			"simnet_messages_to_crashed_total": float64(st.ToCrashed),
			"simnet_inflight_messages":         0,
		}
		for name, v := range want {
			if g, ok := got[name]; !ok || g != v {
				t.Errorf("%s: %s = %v (present %v), NetStats says %v", proto, name, g, ok, v)
			}
		}
	}
}

// testNet is a bare network of cfg.N+1 nodes whose deliveries land in a
// log: what arrived (a data packet as a seq.Packet), where, and when.
type testNet struct {
	*network
	eng *des.Engine
	got []any
	to  []int
	at  []float64
}

func newTestNet(cfg Config) *testNet {
	t := &testNet{eng: des.New(cfg.Seed)}
	log := func(_, to int, m any) {
		t.got = append(t.got, m)
		t.to = append(t.to, to)
		t.at = append(t.at, t.eng.Now())
	}
	t.network = newNetwork(t.eng, &cfg, log)
	t.receiveData = func(from, to int, pkt *seq.Packet) { log(from, to, *pkt) }
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

// A link in its burst state loses what it carries; back in the good
// state (here lossless) it delivers again. This chain flips state on
// every message, so the first message falls into a burst and the second
// out of it.
func TestBurstLossHook(t *testing.T) {
	nw := newTestNet(Config{N: 2, Burst: &transport.BurstParams{PGoodToBad: 1, PBadToGood: 1, LossBad: 1}})
	nw.send(0, 1, "a")
	nw.send(0, 1, "b")
	nw.eng.Run()
	if len(nw.got) != 1 || nw.got[0] != "b" {
		t.Errorf("got = %v", nw.got)
	}
	if nw.stats.Dropped != 1 {
		t.Errorf("dropped %d, want 1", nw.stats.Dropped)
	}
}

// A link's verdicts come from its own stream: adding traffic on other
// links, and the jitter draws it makes on the engine's stream, changes
// nothing about which of its messages are lost.
func TestLinkVerdictsIgnoreOtherLinks(t *testing.T) {
	lostOn01 := func(noise bool) []bool {
		nw := newTestNet(Config{N: 3, Delta: 1, Jitter: 0.5, LossProb: 0.3, Seed: 4})
		lost := make([]bool, 300)
		for i := range lost {
			if noise {
				nw.send(2, 3, "noise")
				nw.send(1, 0, "noise")
			}
			before := nw.stats.Dropped
			nw.send(0, 1, i)
			lost[i] = nw.stats.Dropped > before
		}
		return lost
	}
	alone, crowded := lostOn01(false), lostOn01(true)
	for i := range alone {
		if alone[i] != crowded[i] {
			t.Fatalf("message %d on link 0→1: lost=%v alone, %v beside other links' traffic", i, alone[i], crowded[i])
		}
	}
}

// A crashed node neither sends nor receives, a coordination message or
// a data packet.
func TestCrash(t *testing.T) {
	nw := newTestNet(Config{N: 2})
	nw.crashed[1] = true
	nw.send(0, 1, "to crashed")       // discarded at delivery
	nw.sendData(0, 1, seq.NewData(1)) // likewise
	nw.send(1, 2, "from crashed")     // ignored at send
	nw.sendData(1, 2, seq.NewData(2)) // likewise
	nw.eng.Run()
	if len(nw.got) != 0 {
		t.Errorf("got = %v", nw.got)
	}
	if st := nw.stats; st != (NetStats{Sent: 2, ToCrashed: 2}) {
		t.Errorf("stats = %+v", st)
	}
	nw.crashed[1] = false
	nw.send(0, 1, "after rejoin")
	nw.sendData(0, 1, seq.NewData(3))
	nw.eng.Run()
	if len(nw.got) != 2 || nw.got[1].(seq.Packet).Index != 3 {
		t.Errorf("after rejoin got = %v", nw.got)
	}
}

// A message or data packet in flight when the destination crashes is
// lost: a crash takes effect at delivery time.
func TestCrashInFlight(t *testing.T) {
	nw := newTestNet(Config{N: 2, Delta: 2})
	nw.send(0, 1, "x")
	nw.sendData(0, 1, seq.NewData(1))
	nw.eng.After(1, func() { nw.crashed[1] = true })
	nw.eng.Run()
	if len(nw.got) != 0 || nw.stats.ToCrashed != 2 {
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

// TestSendAllocs pins the pooled deliveries: once warmed, a send and
// its delivery allocate nothing, a coordination message and a data
// packet alike.
func TestSendAllocs(t *testing.T) {
	cfg := Config{N: 1, Delta: 1, Jitter: 0.5, Seed: 1}
	eng := des.New(cfg.Seed)
	got, gotData := 0, 0
	nw := newNetwork(eng, &cfg, func(int, int, any) { got++ })
	nw.receiveData = func(_, _ int, pkt *seq.Packet) {
		if pkt.Index == 7 {
			gotData++
		}
	}
	var msg any = "x"
	for _, c := range []struct {
		name string
		send func()
	}{
		{"control", func() { nw.send(0, 1, msg) }},
		{"data", func() { nw.sendData(0, 1, seq.NewData(7)) }},
	} {
		send := func() {
			for i := 0; i < 8; i++ {
				c.send()
			}
			eng.Run()
		}
		send()
		if n := testing.AllocsPerRun(100, send); n != 0 {
			t.Errorf("warm %s send + delivery: %v allocs, want 0", c.name, n)
		}
	}
	if got != 8*102 || gotData != 8*102 {
		t.Errorf("delivered %d messages and %d data packets, want %d each", got, gotData, 8*102)
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
			cfg.Burst = &transport.BurstParams{PGoodToBad: probs[0], PBadToGood: probs[1], LossGood: probs[2], LossBad: probs[3]}
			if _, err := Run(DCoP, cfg); err == nil {
				t.Errorf("burst %+v accepted", *cfg.Burst)
			}
		}
	}
}

// burstVerdicts sends n messages over link 0 → 1 of a network with
// Gilbert–Elliott loss b and reports which of them were lost.
func burstVerdicts(b transport.BurstParams, seed int64, n int) []bool {
	nw := newTestNet(Config{N: 1, Seed: seed, Burst: &b})
	lost := make([]bool, n)
	for i := range lost {
		before := nw.stats.Dropped
		nw.send(0, 1, nil)
		lost[i] = nw.stats.Dropped > before
	}
	return lost
}

func TestGilbertElliottStationaryLoss(t *testing.T) {
	// pGB=0.1, pBG=0.5 → stationary bad fraction = 0.1/(0.1+0.5) ≈ 1/6.
	// With lossGood=0, lossBad=1, expected loss ≈ 16.7%.
	const n = 200000
	lost := 0
	for _, l := range burstVerdicts(transport.BurstParams{PGoodToBad: 0.1, PBadToGood: 0.5, LossBad: 1}, 42, n) {
		if l {
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
	var runs, runLen, maxRun int
	for _, l := range burstVerdicts(transport.BurstParams{PGoodToBad: 0.01, PBadToGood: 0.2, LossBad: 1}, 7, 100000) {
		if !l {
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
		t.Errorf("max burst %d too short for a bursty link", maxRun)
	}
}

func TestGilbertElliottNeverLoses(t *testing.T) {
	for i, l := range burstVerdicts(transport.BurstParams{PGoodToBad: 0.5, PBadToGood: 0.5}, 1, 1000) {
		if l {
			t.Fatalf("lossless link dropped message %d", i)
		}
	}
}

// Every directed link has its own verdicts on its own stream, seeded
// Seed+7919+from·100003+to, and looking a link up does not step it.
func TestChannelSetIndependence(t *testing.T) {
	burst := transport.BurstParams{PGoodToBad: 0.05, PBadToGood: 0.3, LossBad: 1}
	nw := newTestNet(Config{N: 3, Seed: 9, LossProb: 0.1, Burst: &burst})
	a, b := nw.link(0, 1), nw.link(2, 3)
	if a == b || nw.link(0, 1) != a || nw.link(1, 0) == a {
		t.Fatal("links shared")
	}
	refA := transport.NewLink(9+7919+1, 0.1, &burst)
	refB := transport.NewLink(9+7919+2*100003+3, 0.1, &burst)
	same := true
	for i := 0; i < 5000; i++ {
		la, lb := a.Lost(), b.Lost()
		if la != refA.Lost() || lb != refB.Lost() {
			t.Fatalf("message %d: a link left its seeded stream", i)
		}
		same = same && la == lb
	}
	if same {
		t.Error("suspiciously identical links")
	}
}

// A lossless run keeps no link table: no message draws a verdict.
func TestLosslessRunHasNoLinks(t *testing.T) {
	nw := newTestNet(Config{N: 2, Delta: 1, Jitter: 0.5, Seed: 1})
	nw.send(0, 1, "x")
	nw.eng.Run()
	if nw.links != nil {
		t.Errorf("lossless network built %d links", len(nw.links))
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
	runUntil(r.eng, 6)
	if !r.nw.crashed[2] {
		t.Error("peer did not crash on schedule")
	}
	runUntil(r.eng, 10)
	if r.nw.crashed[2] {
		t.Error("peer did not rejoin on schedule")
	}
	if notes := countTypes(cfg.Obs.Flight.Events()); notes["crash"] != 1 || notes["rejoin"] != 1 {
		t.Errorf("flight notes %v, want one crash and one rejoin", notes)
	}
}

// runUntil runs eng's events up to virtual time t: those due before t
// and those already scheduled at t.
func runUntil(eng *des.Engine, t float64) {
	done := false
	eng.At(t, func() { done = true })
	for !done && eng.Step() {
	}
}
