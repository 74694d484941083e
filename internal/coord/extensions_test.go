package coord

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"p2pmss/internal/des"
	"p2pmss/internal/engine"
	"p2pmss/internal/flight"
	"p2pmss/internal/overlay"
	"p2pmss/internal/seq"
)

func TestAMSBaseline(t *testing.T) {
	cfg := baseCfg()
	cfg.StatePeriods = 3
	res, err := Run(AMS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ActivePeers != cfg.N {
		t.Errorf("active = %d", res.ActivePeers)
	}
	// Asynchronous start: everyone activates on the request (round 1).
	if res.SyncRounds != 1 {
		t.Errorf("sync rounds = %d, want 1", res.SyncRounds)
	}
	// State exchange: n(n-1) control packets per period.
	n := int64(cfg.N)
	wantStates := n * (n - 1) * int64(cfg.StatePeriods)
	if res.StateMessages != wantStates {
		t.Errorf("state messages = %d, want %d", res.StateMessages, wantStates)
	}
	if res.ControlPackets != n+wantStates {
		t.Errorf("control packets = %d, want %d", res.ControlPackets, n+wantStates)
	}
}

// The paper's critique of AMS: its state exchange costs far more control
// packets than DCoP's flooding.
func TestAMSCostsMoreThanDCoP(t *testing.T) {
	cfg := baseCfg()
	a, err := Run(AMS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Run(DCoP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.ControlPackets <= d.ControlPackets {
		t.Errorf("AMS %d not above DCoP %d", a.ControlPackets, d.ControlPackets)
	}
}

func TestAMSDelivery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 10
	cfg.H = 4
	cfg.DataPlane = true
	cfg.Loop = false
	cfg.TrackDelivery = true
	cfg.ContentLen = 200
	cfg.Rate = 5
	res, err := Run(AMS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredData != cfg.ContentLen {
		t.Errorf("delivered %d/%d", res.DeliveredData, cfg.ContentLen)
	}
}

func TestBurstLossIsApplied(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 10
	cfg.H = 4
	cfg.Interval = 2
	cfg.DataPlane = true
	cfg.Loop = false
	cfg.TrackDelivery = true
	cfg.ContentLen = 400
	cfg.Rate = 5
	cfg.Burst = &BurstParams{PGoodToBad: 0.05, PBadToGood: 0.2, LossGood: 0, LossBad: 1}
	res, err := Run(DCoP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NetStats.Dropped == 0 {
		t.Error("burst model dropped nothing")
	}
	// h=2 parity plus repair-free recovery should still deliver most of
	// the content despite the bursts.
	if res.DeliveredData < cfg.ContentLen/2 {
		t.Errorf("delivered %d/%d under bursts", res.DeliveredData, cfg.ContentLen)
	}
}

func TestHeterogeneousBandwidthValidation(t *testing.T) {
	cfg := baseCfg()
	cfg.Bandwidths = []float64{1, 2} // wrong length
	if _, err := Run(DCoP, cfg); err == nil {
		t.Error("wrong-length bandwidths accepted")
	}
	cfg = baseCfg()
	cfg.Bandwidths = make([]float64, cfg.N)
	if _, err := Run(DCoP, cfg); err == nil {
		t.Error("zero bandwidth accepted")
	}
	cfg = baseCfg()
	cfg.Bandwidths = uniformBandwidths(cfg.N, 1)
	cfg.LeafShares = false
	if _, err := Run(DCoP, cfg); err == nil {
		t.Error("heterogeneous without LeafShares accepted")
	}
}

func uniformBandwidths(n int, bw float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = bw
	}
	return out
}

// Heterogeneous division: faster initial peers transmit more packets,
// and the content still arrives completely.
func TestHeterogeneousAssignment(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 8
	cfg.H = 4
	cfg.Interval = 3
	cfg.DataPlane = true
	cfg.Loop = false
	cfg.TrackDelivery = true
	cfg.ContentLen = 400
	cfg.Rate = 5
	bws := uniformBandwidths(cfg.N, 1)
	bws[0], bws[1], bws[2], bws[3] = 8, 8, 8, 8 // some much faster peers
	cfg.Bandwidths = bws
	res, err := Run(DCoP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredData != cfg.ContentLen {
		t.Errorf("delivered %d/%d with heterogeneous division", res.DeliveredData, cfg.ContentLen)
	}
}

func TestHeterogeneousRatesProportional(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 4
	cfg.H = 4
	cfg.Interval = 3
	cfg.Bandwidths = []float64{4, 2, 1, 1}
	r, err := newRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	selected := []overlay.PeerID{0, 1, 2, 3}
	_, r0 := r.initialAssignment(0, selected)
	_, r1 := r.initialAssignment(1, selected)
	_, r2 := r.initialAssignment(2, selected)
	if !(r0 > r1 && r1 > r2) {
		t.Errorf("rates not ordered by bandwidth: %v %v %v", r0, r1, r2)
	}
	if ratio := r0 / r2; ratio < 3.9 || ratio > 4.1 {
		t.Errorf("rate ratio %v, want 4", ratio)
	}
}

func TestPlaybackModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 10
	cfg.H = 4
	cfg.Interval = 2
	cfg.DataPlane = true
	cfg.Loop = false
	cfg.Playback = true
	cfg.PlaybackDelay = 20 // generous startup buffer
	cfg.ContentLen = 300
	cfg.Rate = 5
	res, err := Run(DCoP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PlaybackStart <= 0 {
		t.Error("playback never started")
	}
	if res.Underruns != 0 {
		t.Errorf("underruns = %d with a 20-unit startup buffer", res.Underruns)
	}

	// With (almost) no startup buffer, the real-time constraint bites:
	// early packets are consumed before slower peers deliver them.
	cfg.PlaybackDelay = 0.01
	cfg.Seed = 2
	res, err = Run(DCoP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Underruns == 0 {
		t.Error("zero startup buffer produced no underruns")
	}
}

func TestPlaybackRequiresDataPlane(t *testing.T) {
	cfg := baseCfg()
	cfg.Playback = true
	if _, err := Run(DCoP, cfg); err == nil {
		t.Error("playback without data plane accepted")
	}
}

func TestTraceRecordsRun(t *testing.T) {
	cfg := baseCfg()
	cfg.Obs.Flight = flight.NewSet(0)
	if _, err := Run(DCoP, cfg); err != nil {
		t.Fatal(err)
	}
	counts := countTypes(cfg.Obs.Flight.Events())
	if counts["activate"] == 0 || counts["send_control"] == 0 {
		t.Errorf("flight counts = %v", counts)
	}
}

func TestTraceRecordsCrashes(t *testing.T) {
	cfg := baseCfg()
	cfg.Obs.Flight = flight.NewSet(0)
	cfg.CrashPeers = []overlay.PeerID{1, 2}
	cfg.CrashAt = 1.5
	if _, err := Run(DCoP, cfg); err != nil {
		t.Fatal(err)
	}
	var crashed []int
	for _, e := range cfg.Obs.Flight.Events() {
		if e.Dir == flight.DirDriver && e.Type == "crash" {
			if e.T != cfg.CrashAt {
				t.Errorf("crash note at t=%v, want %v", e.T, cfg.CrashAt)
			}
			crashed = append(crashed, e.Peer)
		}
	}
	if len(crashed) != 2 || crashed[0] != 1 || crashed[1] != 2 {
		t.Errorf("crash notes on peers %v, want [1 2]", crashed)
	}
}

// Driver notes are invisible to the divergence differ: a run whose log
// carries crash notes (the crashes land after coordination quiesced, so
// no protocol decision changes) aligns with the note-free run of the
// same seed.
func TestDriverNotesDoNotDiverge(t *testing.T) {
	bare, noted := baseCfg(), baseCfg()
	bare.Obs.Flight, noted.Obs.Flight = flight.NewSet(0), flight.NewSet(0)
	noted.CrashPeers = []overlay.PeerID{1, 2}
	noted.CrashAt = 1e6
	for _, cfg := range []Config{bare, noted} {
		if _, err := Run(TCoP, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if n := countTypes(noted.Obs.Flight.Events())["crash"]; n != 2 {
		t.Fatalf("%d crash notes in the log, want 2", n)
	}
	d := flight.FirstDivergence(
		flight.Log{Label: "bare", Events: bare.Obs.Flight.Events()},
		flight.Log{Label: "noted", Events: noted.Obs.Flight.Events()},
		flight.DiffOptions{IncludeTimers: true},
	)
	if d != nil {
		t.Errorf("driver notes reported as divergence:\n%s", d)
	}
}

// Repair protocol: with a crash and no parity, the leaf-driven
// retransmission still completes delivery.
func TestRepairRecoversAfterCrash(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 10
	cfg.H = 5
	cfg.Interval = 1000 // parity interval beyond any subsequence: no parity help
	cfg.DataPlane = true
	cfg.Loop = false
	cfg.Repair = true
	cfg.ContentLen = 300
	cfg.Rate = 10
	cfg.CrashPeers = []overlay.PeerID{0, 1}
	cfg.CrashAt = 10
	cfg.Obs.Flight = flight.NewSet(0)
	res, err := Run(DCoP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredData != cfg.ContentLen {
		t.Errorf("delivered %d/%d with repair", res.DeliveredData, cfg.ContentLen)
	}
	if res.RepairRequests == 0 {
		t.Error("repair never triggered despite crashes")
	}
	// Each request is a driver note on the leaf's flight track.
	if n := countTypes(cfg.Obs.Flight.Events())["repair_request"]; int64(n) != res.RepairRequests {
		t.Errorf("%d repair_request notes for %d repair requests", n, res.RepairRequests)
	}
	cfg.Obs.Flight = nil

	// Control: without repair the same scenario loses content.
	cfg.Repair = false
	res, err = Run(DCoP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredData == cfg.ContentLen {
		t.Skip("crash happened to lose nothing this seed; repair effect not distinguishable")
	}
}

// Regression: the pre-streaming quiet period is not a stall. With a
// repair interval shorter than the coordination handshake (first check
// fires before any data packet can possibly have arrived), a clean run
// must not burn a repair round on a spurious 64-packet request.
func TestRepairQuietStartNotAStall(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 10
	cfg.H = 5
	cfg.Interval = 2
	cfg.DataPlane = true
	cfg.Loop = false
	cfg.Repair = true
	cfg.RepairInterval = 1 // < 2δ: fires while coordination is in flight
	cfg.ContentLen = 200
	cfg.Rate = 10
	res, err := Run(DCoP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RepairRequests != 0 {
		t.Errorf("clean run issued %d spurious repair requests", res.RepairRequests)
	}
	if res.DeliveredData != cfg.ContentLen {
		t.Errorf("delivered %d/%d", res.DeliveredData, cfg.ContentLen)
	}
}

// The leaf's missing set — the loss detector the live leaf shares, fed
// incrementally off the recoverer — agrees with a full rescan of the
// recoverer: delivery completes and exactly the missing indices were
// requested (exercised end-to-end by TestRepairRecoversAfterCrash); here
// we pin the leaf-level bookkeeping directly, on a run cut short so
// indices are still missing.
func TestLeafMissingSetIncremental(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 6
	cfg.H = 3
	cfg.Interval = 2
	cfg.DataPlane = true
	cfg.Loop = false
	cfg.Repair = true
	cfg.LossProb = 0.1
	cfg.ContentLen = 200
	cfg.Rate = 10
	r, err := newRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.impl = &coordinated{r: r, dcop: true}
	check := func(when string) {
		t.Helper()
		missing := r.leaf.asm.Missing()
		var want []int64
		for k := int64(1); k <= cfg.ContentLen; k++ {
			if !r.leaf.asm.HasData(k) {
				want = append(want, k)
			}
		}
		if !slices.Equal(missing, want) {
			t.Fatalf("%s: missing set %v, recoverer rescan %v", when, missing, want)
		}
		if got := r.leaf.asm.Have(); got != cfg.ContentLen-int64(len(want)) {
			t.Fatalf("%s: Have %d with %d of %d missing", when, got, len(want), cfg.ContentLen)
		}
	}
	r.leaf.arm()
	r.impl.start()
	r.eng.RunUntil(10)
	if r.leaf.asm.Complete() {
		t.Fatal("content complete mid-stream: nothing to check")
	}
	check("mid-stream")
	r.eng.Run()
	check("end")
}

// runWithheld runs a TCoP session whose leaf does not see the named data
// packets, in any form (parities covering them included), until it has
// issued its first repair request. It returns the result and the leaf's
// repair_request notes counted by trigger.
func runWithheld(t *testing.T, keys ...string) (Result, map[string]int) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.N = 10
	cfg.H = 3
	cfg.Interval = 2
	cfg.DataPlane = true
	cfg.Loop = false
	cfg.Repair = true
	cfg.ContentLen = 120
	cfg.Rate = 10
	cfg.Obs.Flight = flight.NewSet(0)
	r, err := newRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.impl = &coordinated{r: r}
	r.nw.receive = func(from, to int, m any) {
		if dm, ok := m.(dataMsg); ok && r.res.RepairRequests == 0 {
			ids := strings.FieldsFunc(dm.Pkt.Key(), func(c rune) bool { return c == '(' || c == ')' || c == ',' })
			for _, k := range keys {
				if slices.Contains(ids, k) {
					return
				}
			}
		}
		r.receive(from, to, m)
	}
	res := r.run()
	notes := map[string]int{}
	for _, e := range cfg.Obs.Flight.Events() {
		if e.Type == "repair_request" {
			notes[e.Note]++
		}
	}
	if res.DeliveredData != cfg.ContentLen {
		t.Errorf("delivered %d/%d", res.DeliveredData, cfg.ContentLen)
	}
	return res, notes
}

// Two packets of one recovery segment withheld mid-stream are asked for
// by the gap rule, not the stall round.
func TestRepairGapMidStream(t *testing.T) {
	_, notes := runWithheld(t, "t61", "t62")
	if notes["gap"] == 0 || notes["stall"] != 0 {
		t.Errorf("repair notes by trigger %v, want gap only", notes)
	}
}

// A loss in the stream's tail is past every sender's last packet, where
// the gap rule cannot prove it: once every sender has reached the end,
// the end-of-stream round repairs it, before any stall round.
func TestRepairTailLossByTailRound(t *testing.T) {
	_, notes := runWithheld(t, "t119", "t120")
	if notes["tail"] == 0 || notes["gap"] != 0 || notes["stall"] != 0 {
		t.Errorf("repair notes by trigger %v, want tail only", notes)
	}
}

// A leaf whose selected peers crash while its requests are in flight
// hears nothing at all — the requests are lost without a send error, so
// no slot fails over, and nobody else was asked to stream — and still
// completes: the quiet start only delays the stall round, which then
// asks the other peers for everything.
func TestRepairFallsThroughQuietStart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 10
	cfg.H = 3
	cfg.Interval = 2
	cfg.DataPlane = true
	cfg.Loop = false
	cfg.Repair = true
	cfg.ContentLen = 120
	cfg.Rate = 10
	cfg.CrashPeers, _ = engine.SelectInitial(des.NewRand(engine.PeerSeed(cfg.Seed, engine.LeafID)), cfg.N, cfg.H)
	cfg.CrashAt = cfg.Delta / 2
	res, err := Run(TCoP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ActivePeers != 0 {
		t.Fatalf("%d peers streamed: the leaf's selected peers were not the ones crashed", res.ActivePeers)
	}
	if res.DeliveredData != cfg.ContentLen || res.RepairRequests == 0 {
		t.Errorf("delivered %d/%d after %d repair requests", res.DeliveredData, cfg.ContentLen, res.RepairRequests)
	}
}

func TestRepairRequiresDataPlane(t *testing.T) {
	cfg := baseCfg()
	cfg.Repair = true
	if _, err := Run(DCoP, cfg); err == nil {
		t.Error("repair without data plane accepted")
	}
}

// End-to-end §2 proportionality: under the heterogeneous division, a
// peer with 4× bandwidth transmits roughly 4× the packets of a slow one.
func TestHeterogeneousLoadProportional(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 4
	cfg.H = 4 // all peers selected directly: pure §2 division
	cfg.Interval = 3
	cfg.DataPlane = true
	cfg.Loop = false
	cfg.TrackDelivery = true
	cfg.ContentLen = 800
	cfg.Rate = 8
	cfg.Bandwidths = []float64{4, 2, 1, 1}
	res, err := Run(DCoP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PeerSent) != 4 {
		t.Fatalf("PeerSent = %v", res.PeerSent)
	}
	var total int64
	for _, n := range res.PeerSent {
		total += n
	}
	if total == 0 {
		t.Fatal("nothing transmitted")
	}
	// Identify the bw-4 peer's share: it should carry ≈ 4/8 of the load.
	// (The leaf's selection order is random, but with H=N every peer is
	// selected and Bandwidths[i] applies to peer i directly.)
	shareFast := float64(res.PeerSent[0]) / float64(total)
	shareSlow := float64(res.PeerSent[2]) / float64(total)
	if ratio := shareFast / shareSlow; ratio < 3.0 || ratio > 5.0 {
		t.Errorf("fast/slow load ratio = %.2f (sent %v), want ≈4", ratio, res.PeerSent)
	}
	if res.DeliveredData != cfg.ContentLen {
		t.Errorf("delivered %d/%d", res.DeliveredData, cfg.ContentLen)
	}
}

// One DCoP control delivered to an active peer whose view is already
// full costs less than its share, end to end: no selection follows, so
// the engine builds no union and the transmitter merges the share in as
// it sends. Folded, the schedule is own ∪ share from its first packet.
func TestDCoPMergeAllocatesTheShare(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N, cfg.H, cfg.Interval = 4, 4, 3
	cfg.DataPlane = true
	cfg.ContentLen = 30000
	r, err := newRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := &coordinated{r: r, dcop: true}
	r.impl = d
	r.initEngine(true)

	// The leaf's request names all four peers, so the view is full from
	// the first event on and no selection round ever follows.
	everyone := []overlay.PeerID{0, 1, 2, 3}
	p := r.peers[1]
	d.deliver(p, r.leafID(), reqMsg{Rate: cfg.Rate, Index: 1, Round: 1, Selected: everyone})
	own := p.tx.st.Snapshot().Seq()
	if !p.active || len(own) == 0 {
		t.Fatalf("request did not activate the peer (active=%v, %d packets)", p.active, len(own))
	}

	share := seq.Div(r.enhancedContent(), cfg.H, 2)
	ctl := &ctlMsg{Parent: 0, View: everyone, Round: 2, ChildIdx: 1, Rate: 1, ChildRate: 0.25, Children: 1, AssignedSeq: share}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d.deliver(p, 0, ctl)
	runtime.ReadMemStats(&after)

	shareBytes := uint64(len(share)) * uint64(unsafe.Sizeof(seq.Packet{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > shareBytes {
		t.Errorf("the merge allocated %d B end to end, want less than its share's %d B", got, shareBytes)
	}
	if want, got := seq.Union(own, share), p.tx.st.Snapshot(); !seq.Equal(got.Seq(), want) || got.Offset != 0 {
		t.Fatalf("transmitter holds %d packets at offset %d, want the %d of own ∪ share at 0", len(got.Seq()), got.Offset, len(want))
	}
}
