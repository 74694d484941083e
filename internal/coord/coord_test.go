package coord

import (
	"math"
	"strings"
	"testing"

	"p2pmss/internal/engine"
	"p2pmss/internal/flight"
	"p2pmss/internal/metrics"
	"p2pmss/internal/overlay"
	"p2pmss/internal/seq"
)

func baseCfg() Config {
	cfg := DefaultConfig()
	cfg.N = 40
	cfg.H = 5
	return cfg
}

func TestRunUnknownProtocol(t *testing.T) {
	if _, err := Run("nope", baseCfg()); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.N = 0 },
		func(c *Config) { c.H = 0 },
		func(c *Config) { c.H = c.N + 1 },
		func(c *Config) { c.Rate = 0 },
		func(c *Config) { c.Interval = -1 },
		func(c *Config) { c.DataPlane, c.ContentLen = true, 0 },
		func(c *Config) { c.DataPlane, c.Window = true, 0 },
		// Out-of-range link and crash settings: each used to panic inside
		// the run or run silently wrong.
		func(c *Config) { c.LossProb = 1.5 },
		func(c *Config) { c.LossProb = -0.1 },
		func(c *Config) { c.LossProb = math.NaN() },
		func(c *Config) { c.Delta = -1 },
		func(c *Config) { c.Delta = math.NaN() },
		func(c *Config) { c.Jitter = -0.5 },
		func(c *Config) { c.DataPlane, c.Settle = true, -50 },
		func(c *Config) { c.CrashPeers = []overlay.PeerID{-1} },
		func(c *Config) { c.CrashPeers = []overlay.PeerID{overlay.PeerID(c.N)} }, // the leaf
		func(c *Config) { c.Churn = &ChurnSchedule{Events: []ChurnEvent{{At: 1, Peer: overlay.PeerID(c.N)}}} },
		func(c *Config) { c.Churn = &ChurnSchedule{Events: []ChurnEvent{{At: 1, Peer: -3}}} },
	}
	for i, mutate := range bad {
		cfg := baseCfg()
		mutate(&cfg)
		if _, err := Run(DCoP, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	cfg := baseCfg()
	cfg.Delta = -1
	if _, err := Run(DCoP, cfg); err == nil || !strings.Contains(err.Error(), "Delta") {
		t.Errorf("negative Delta: error %v does not name Delta", err)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{N: 10, H: 4, Rate: 1, Seed: 1}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.Interval != 3 {
		t.Errorf("Interval default = %d, want H-1 = 3", cfg.Interval)
	}
	cfg = Config{N: 10, H: 1, Rate: 1}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.Interval != 1 {
		t.Errorf("Interval for H=1 = %d, want 1", cfg.Interval)
	}
}

func TestDCoPActivatesAll(t *testing.T) {
	// Full activation requires gossip fanout on the order of log n
	// (the paper's reference [6]); H = 2 < log2(40) may legitimately
	// strand a few peers (coverage over 30 seeds averages ~91% with a
	// worst case near 77%), so only majority coverage is required there.
	for _, H := range []int{2, 5, 20, 40} {
		cfg := baseCfg()
		cfg.H = H
		res, err := Run(DCoP, cfg)
		if err != nil {
			t.Fatal(err)
		}
		minActive := cfg.N
		if H < 5 {
			minActive = cfg.N * 3 / 4
		}
		if res.ActivePeers < minActive {
			t.Errorf("H=%d: active = %d, want >= %d", H, res.ActivePeers, minActive)
		}
		if res.Rounds < 1 || res.ControlPackets < int64(H) {
			t.Errorf("H=%d: implausible rounds=%d ctl=%d", H, res.Rounds, res.ControlPackets)
		}
	}
}

func TestTCoPActivatesAll(t *testing.T) {
	// TCoP may strand peers when selections keep hitting active peers;
	// with H not too small every peer should be reached for n=40.
	for _, H := range []int{5, 20, 40} {
		cfg := baseCfg()
		cfg.H = H
		res, err := Run(TCoP, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.ActivePeers != cfg.N {
			t.Errorf("H=%d: active = %d, want %d", H, res.ActivePeers, cfg.N)
		}
	}
}

// TCoP invariant: every peer has at most one parent (non-redundant).
func TestTCoPSingleParentInvariant(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		cfg := baseCfg()
		cfg.Seed = seed
		r, err := newRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.impl = &coordinated{r: r}
		r.run()
		for _, p := range r.peers {
			if !p.active && p.core.Outcome().Committed {
				t.Errorf("seed %d: peer %d committed but inactive", seed, p.id)
			}
		}
		// Count adopted children: each adopted exactly once across parents.
		children := map[int]int{}
		for _, p := range r.peers {
			for _, c := range p.core.Outcome().Children {
				children[int(c)]++
			}
		}
		for c, n := range children {
			if n > 1 {
				t.Errorf("seed %d: peer %d confirmed by %d parents", seed, c, n)
			}
		}
	}
}

// DCoP redundancy: with a small universe and large fanout some peer is
// selected by multiple parents (the defining property vs TCoP).
func TestDCoPRedundantSelectionHappens(t *testing.T) {
	cfg := baseCfg()
	cfg.N = 20
	cfg.H = 10
	cfg.DataPlane = true
	cfg.Rate = 5
	res, err := Run(DCoP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DupPackets == 0 {
		t.Log("no duplicate arrivals in window; checking control volume instead")
		if res.ControlPackets <= int64(cfg.N) {
			t.Errorf("suspiciously few control packets: %d", res.ControlPackets)
		}
	}
}

func TestDCoPFewerRoundsThanTCoP(t *testing.T) {
	// The paper's headline comparison: DCoP synchronizes in fewer rounds
	// and fewer control packets than TCoP (its 3-round handshakes).
	var sumD, sumT, pktD, pktT int64
	for seed := int64(1); seed <= 10; seed++ {
		cfg := baseCfg()
		cfg.N = 60
		cfg.H = 8
		cfg.Seed = seed
		d, err := Run(DCoP, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tc, err := Run(TCoP, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sumD += int64(d.SyncRounds)
		sumT += int64(tc.SyncRounds)
		pktD += d.ControlPackets
		pktT += tc.ControlPackets
	}
	if sumD >= sumT {
		t.Errorf("DCoP rounds %d not < TCoP rounds %d", sumD, sumT)
	}
	if pktD >= pktT {
		t.Errorf("DCoP packets %d not < TCoP packets %d", pktD, pktT)
	}
}

func TestBroadcastBaseline(t *testing.T) {
	cfg := baseCfg()
	res, err := Run(Broadcast, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(cfg.N)
	if res.ControlPackets != n+n*(n-1) {
		t.Errorf("control packets = %d, want n + n(n-1) = %d", res.ControlPackets, n+n*(n-1))
	}
	if res.SyncRounds != 1 {
		t.Errorf("sync rounds = %d, want 1 (everyone starts on the request)", res.SyncRounds)
	}
	if res.ActivePeers != cfg.N {
		t.Errorf("active = %d", res.ActivePeers)
	}
}

func TestUnicastBaseline(t *testing.T) {
	cfg := baseCfg()
	res, err := Run(Unicast, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ControlPackets != int64(cfg.N) {
		t.Errorf("control packets = %d, want n = %d", res.ControlPackets, cfg.N)
	}
	if res.SyncRounds != cfg.N {
		t.Errorf("sync rounds = %d, want n = %d", res.SyncRounds, cfg.N)
	}
	if res.ActivePeers != cfg.N {
		t.Errorf("active = %d", res.ActivePeers)
	}
}

func TestCentralizedBaseline(t *testing.T) {
	cfg := baseCfg()
	res, err := Run(Centralized, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(cfg.N)
	// request + (n-1) prepares + (n-1) acks + (n-1) starts.
	if res.ControlPackets != 1+3*(n-1) {
		t.Errorf("control packets = %d, want %d", res.ControlPackets, 1+3*(n-1))
	}
	if res.SyncRounds != 4 {
		t.Errorf("sync rounds = %d, want 4", res.SyncRounds)
	}
	if res.ActivePeers != cfg.N {
		t.Errorf("active = %d", res.ActivePeers)
	}
}

func TestDeterminism(t *testing.T) {
	for _, proto := range Protocols {
		cfg := baseCfg()
		cfg.Seed = 7
		a, err := Run(proto, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(proto, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Rounds != b.Rounds || a.ControlPackets != b.ControlPackets ||
			a.SyncTime != b.SyncTime || a.ActivePeers != b.ActivePeers {
			t.Errorf("%s: same seed diverged: %+v vs %+v", proto, a, b)
		}
	}
}

// End-to-end delivery: with the data plane on and a finite content, the
// leaf must end up holding every data packet (§2's completeness).
func TestDeliveryComplete(t *testing.T) {
	for _, proto := range Protocols {
		cfg := DefaultConfig()
		cfg.N = 12
		cfg.H = 4
		cfg.DataPlane = true
		cfg.Loop = false
		cfg.ContentLen = 300
		cfg.Rate = 5
		res, err := Run(proto, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.DeliveredData != cfg.ContentLen {
			t.Errorf("%s: delivered %d/%d data packets", proto, res.DeliveredData, cfg.ContentLen)
		}
	}
}

// TestPacketPlaneReportsDelivery: every packet-plane run assembles the
// content at its leaf, so a run with no option set reports what the leaf
// holds and what parity recovered, in the Result and in the leaf's
// metrics, lossless and lossy. The figures are those the simulator
// reported when a run assembled only if its config asked.
func TestPacketPlaneReportsDelivery(t *testing.T) {
	for _, c := range []struct {
		proto                Protocol
		loss                 float64
		delivered, recovered int64
	}{
		{DCoP, 0, 400, 562},
		{DCoP, 0.2, 389, 484},
		{TCoP, 0, 400, 389},
		{TCoP, 0.2, 348, 317},
	} {
		cfg := DefaultConfig()
		cfg.N, cfg.H, cfg.Interval, cfg.Seed = 30, 4, 2, 3
		cfg.DataPlane, cfg.Loop, cfg.ContentLen, cfg.Rate = true, false, 400, 5
		cfg.LossProb = c.loss
		reg := metrics.New()
		cfg.Obs.Metrics = reg
		res, err := Run(c.proto, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.DeliveredData != c.delivered || res.RecoveredData != c.recovered {
			t.Errorf("%s loss %v: delivered %d, recovered %d; want %d, %d",
				c.proto, c.loss, res.DeliveredData, res.RecoveredData, c.delivered, c.recovered)
		}
		if got := reg.Gauge("coord_leaf_delivered_data").Value(); got != float64(res.DeliveredData) {
			t.Errorf("%s loss %v: coord_leaf_delivered_data %v, the Result %d", c.proto, c.loss, got, res.DeliveredData)
		}
		if got := reg.Counter("coord_leaf_recovered_total").Value(); got != res.RecoveredData {
			t.Errorf("%s loss %v: coord_leaf_recovered_total %d, the Result %d", c.proto, c.loss, got, res.RecoveredData)
		}
	}
}

// §3.2's reliability: with packet loss on the data channels, parity
// recovery still reconstructs (nearly) all of the content, far beyond
// what arrived directly.
func TestDeliveryWithLoss(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 12
	cfg.H = 4
	cfg.Interval = 2 // strong parity: one parity packet per 2 data packets
	cfg.DataPlane = true
	cfg.Loop = false
	cfg.ContentLen = 400
	cfg.Rate = 5
	cfg.LossProb = 0.03
	res, err := Run(DCoP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(res.DeliveredData) / float64(cfg.ContentLen)
	if frac < 0.97 {
		t.Errorf("delivered fraction %.3f with 3%% loss and h=2 parity", frac)
	}
	if res.RecoveredData == 0 {
		t.Error("parity recovery never used despite loss")
	}
}

// Peer crash tolerance (§3.2): if peers crash after coordination, the
// redundancy of DCoP plus parity keeps delivery high.
func TestPeerCrashTolerance(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 12
	cfg.H = 6
	cfg.Interval = 2
	cfg.DataPlane = true
	cfg.Loop = false
	cfg.ContentLen = 300
	cfg.Rate = 10
	cfg.Churn = crashesAt(30, 3)
	res, err := Run(DCoP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(res.DeliveredData) / float64(cfg.ContentLen)
	if frac < 0.5 {
		t.Errorf("delivered fraction %.3f after one crash", frac)
	}
}

// The leaf's maximum receipt rate ρ_s (§3.1): the broadcast baseline,
// where every peer sends everything, overruns a rate-limited leaf buffer;
// DCoP at the same limit does not.
func TestBufferOverrun(t *testing.T) {
	mk := func(proto string) Result {
		cfg := DefaultConfig()
		cfg.N = 20
		cfg.H = 4
		cfg.DataPlane = true
		cfg.Rate = 2
		// ρ_s = 6τ: comfortably above DCoP's aggregate (≈τ(h+1)/h plus
		// transient redundancy) but far below broadcast's n·τ(h+1)/h ≈ 22τ.
		cfg.LeafMaxRate = 12
		cfg.LeafBuffer = 10
		cfg.ContentLen = 50000
		res, err := Run(proto, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	b := mk(Broadcast)
	d := mk(DCoP)
	if b.Overruns == 0 {
		t.Error("broadcast baseline never overran a leaf limited to 5τ")
	}
	if d.Overruns > b.Overruns/5 {
		t.Errorf("DCoP overruns %d not far below broadcast %d", d.Overruns, b.Overruns)
	}
}

func TestCrashedPeersReduceActive(t *testing.T) {
	cfg := baseCfg()
	cfg.CrashPeers = []overlay.PeerID{0, 1, 2, 3, 4}
	res, err := Run(DCoP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ActivePeers > cfg.N-len(cfg.CrashPeers) {
		t.Errorf("active = %d with %d crashed", res.ActivePeers, len(cfg.CrashPeers))
	}
	// The rest still synchronize: crashed peers are simply never heard.
	if res.ActivePeers < cfg.N-len(cfg.CrashPeers)-5 {
		t.Errorf("too few active: %d", res.ActivePeers)
	}
}

func TestH1DegeneratesToSinglePeerStart(t *testing.T) {
	cfg := baseCfg()
	cfg.H = 1
	res, err := Run(DCoP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// H=1 floods one peer at a time but must still reach everyone.
	if res.ActivePeers != cfg.N {
		t.Errorf("active = %d", res.ActivePeers)
	}
}

func TestLeafSharesReducesControlTraffic(t *testing.T) {
	var with, without int64
	for seed := int64(1); seed <= 5; seed++ {
		cfg := baseCfg()
		cfg.N = 80
		cfg.H = 40
		cfg.Seed = seed
		cfg.LeafShares = true
		a, err := Run(DCoP, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.LeafShares = false
		b, err := Run(DCoP, cfg)
		if err != nil {
			t.Fatal(err)
		}
		with += a.ControlPackets
		without += b.ControlPackets
	}
	if with >= without {
		t.Errorf("sharing the initial selection did not reduce traffic: %d vs %d", with, without)
	}
}

func TestMarkOffset(t *testing.T) {
	if got := engine.MarkOffset(10, 1, 4); got != 14 {
		t.Errorf("MarkOffset = %d, want 14", got)
	}
	if got := engine.MarkOffset(0, 0.5, 3); got != 1 {
		t.Errorf("MarkOffset = %d, want 1 (floor of 1.5)", got)
	}
	if got := engine.MarkOffset(5, 0, 10); got != 5 {
		t.Errorf("MarkOffset = %d, want 5", got)
	}
}

func TestShareOutPreservesPackets(t *testing.T) {
	// Every data packet after the mark appears in exactly one part, and
	// the parts are pairwise disjoint.
	ps := seq.Range(1, 60)
	parts, rate := engine.ShareOut(ps, 10, 2.0, 3, 4)
	if len(parts) != 4 {
		t.Fatalf("parts = %d", len(parts))
	}
	wantRate := 2.0 * 4 / (3 * 4)
	if rate != wantRate {
		t.Errorf("rate = %v, want %v", rate, wantRate)
	}
	var u seq.Sequence
	for i, p := range parts {
		for j := i + 1; j < len(parts); j++ {
			if len(seq.Intersect(p, parts[j])) != 0 {
				t.Fatalf("parts %d and %d overlap", i, j)
			}
		}
		u = seq.Union(u, p)
	}
	var got []int64
	for _, p := range u {
		if p.IsData() {
			got = append(got, p.Index)
		}
	}
	if len(got) != 50 || got[0] != 11 || got[len(got)-1] != 60 {
		t.Errorf("union covers %d data packets [%d..%d], want 50 [11..60]",
			len(got), got[0], got[len(got)-1])
	}
	if u.CountData() == len(u) {
		t.Error("no parity packets inserted")
	}

	// Interval 0: plain split, no parity, rate halves.
	parts, rate = engine.ShareOut(ps, 0, 2.0, 0, 2)
	if rate != 1.0 {
		t.Errorf("plain rate = %v, want 1", rate)
	}
	if u := seq.Union(parts[0], parts[1]); u.CountData() != len(u) {
		t.Error("plain split added parity")
	}

	// Nil stream (control-plane-only mode).
	parts, rate = engine.ShareOut(nil, 0, 3.0, 2, 3)
	if parts != nil || rate != 3.0*3/(2*3) {
		t.Errorf("nil stream: parts=%v rate=%v", parts, rate)
	}

	// Mark beyond the end: empty parts.
	parts, _ = engine.ShareOut(seq.Range(1, 5), 99, 1, 2, 2)
	if len(parts) != 2 || len(parts[0]) != 0 || len(parts[1]) != 0 {
		t.Errorf("mark past end: %v", parts)
	}
}

// TCoP tree well-formedness: every active non-initial peer was confirmed
// by exactly one parent, so confirmed edges = active peers − H initial.
func TestTCoPTreeEdgeCount(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		cfg := baseCfg()
		cfg.Seed = seed
		r, err := newRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.impl = &coordinated{r: r}
		r.run()
		active, edges := 0, 0
		for _, p := range r.peers {
			if p.active {
				active++
			}
			edges += len(p.core.Outcome().Children)
		}
		if edges != active-cfg.H {
			t.Errorf("seed %d: %d edges for %d active peers (H=%d)", seed, edges, active, cfg.H)
		}
	}
}

// A deterministic churn schedule (crash then rejoin) runs inside the
// simulation and leaves driver notes in the flight log; delivery still
// holds thanks to DCoP's redundancy plus parity.
func TestChurnScheduleInSimulation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 12
	cfg.H = 6
	cfg.Interval = 2
	cfg.DataPlane = true
	cfg.Loop = false
	cfg.ContentLen = 300
	cfg.Rate = 10
	cfg.Obs.Flight = flight.NewSet(4096)
	cfg.Churn = &ChurnSchedule{Events: []ChurnEvent{
		{At: 30, Peer: 3},
		{At: 60, Peer: 3, Join: true},
		{At: 35, Peer: 4},
	}}
	res, err := Run(DCoP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	notes := countTypes(cfg.Obs.Flight.Events())
	if notes["crash"] != 2 || notes["rejoin"] != 1 {
		t.Errorf("flight log has %d crash and %d rejoin notes, want 2 and 1", notes["crash"], notes["rejoin"])
	}
	frac := float64(res.DeliveredData) / float64(cfg.ContentLen)
	if frac < 0.5 {
		t.Errorf("delivered fraction %.3f under churn", frac)
	}
}

func TestChurnScheduleRejectsBadTimes(t *testing.T) {
	cfg := baseCfg()
	cfg.Churn = &ChurnSchedule{Events: []ChurnEvent{{At: -2, Peer: 1}}}
	if _, err := Run(TCoP, cfg); err == nil {
		t.Error("negative churn time accepted")
	}
}
