// Fluid-vs-packet data-plane conformance: the flow-level plane
// (coord.PlaneFluid, internal/fluid) must reproduce the per-packet
// plane's results at small n, where running both is cheap.
//
// The contract has three tiers. With zero jitter and zero loss the fluid
// plane mirrors every eng.Rand() draw of the packet plane (transmitter
// phase draws are the only data-plane draws), so the control trajectory
// is event-identical: sync time, rounds, control packets and active
// peers must be exactly equal, per-peer send counts equal up to one
// boundary slot, and the receipt rate equal up to the packet plane's
// accumulated floating-point slot drift. Bernoulli loss keeps the control
// trajectory identical: every directed link draws its verdicts from its
// own stream, so the packet plane's data packets, which travel only to
// the leaf, leave the verdicts of every link between peers as they were.
// With zero jitter and loss the control results must still be exactly
// equal. With jitter too the
// two planes consume the engine's stream differently (every per-packet
// send draws jitter), so only the seed-averaged receipt rate is
// comparable, within a pinned tolerance.
package conformance_test

import (
	"math"
	"testing"

	"p2pmss/internal/coord"
	"p2pmss/internal/transport"
)

// fluidBaseConfig is the small-n data-plane setting both planes run.
func fluidBaseConfig(n, h int, seed int64) coord.Config {
	cfg := coord.DefaultConfig()
	cfg.N, cfg.H = n, h
	cfg.DataPlane = true
	cfg.Jitter = 0
	cfg.Rate = 2
	cfg.ContentLen = 30000
	cfg.Settle, cfg.Window = 10, 100
	cfg.Seed = seed
	return cfg
}

// receiptRateTol is the relative slack for the exact tier: the packet
// plane reaches each slot by repeated After(1/rate) hops, so a send can
// drift across a window boundary by accumulated float error; one slot
// out of a >100-packet window is well under 2%.
const receiptRateTol = 0.02

func TestFluidConformanceExactWithoutImpairments(t *testing.T) {
	for _, proto := range []coord.Protocol{coord.DCoP, coord.TCoP} {
		for _, h := range []int{5, 10} {
			for seed := int64(1); seed <= 3; seed++ {
				cfg := fluidBaseConfig(40, h, seed)
				pk, err := coord.Run(proto, cfg)
				if err != nil {
					t.Fatalf("%s packet run: %v", proto, err)
				}
				cfg.PlaneMode = coord.PlaneFluid
				fl, err := coord.Run(proto, cfg)
				if err != nil {
					t.Fatalf("%s fluid run: %v", proto, err)
				}
				id := func(what string) string { return proto + "/" + what }
				if fl.SyncTime != pk.SyncTime {
					t.Errorf("%s h=%d seed=%d: SyncTime fluid %v != packet %v", id("sync"), h, seed, fl.SyncTime, pk.SyncTime)
				}
				if fl.Rounds != pk.Rounds || fl.SyncRounds != pk.SyncRounds {
					t.Errorf("%s h=%d seed=%d: rounds fluid %d/%d != packet %d/%d",
						id("rounds"), h, seed, fl.Rounds, fl.SyncRounds, pk.Rounds, pk.SyncRounds)
				}
				if fl.ControlPackets != pk.ControlPackets {
					t.Errorf("%s h=%d seed=%d: ControlPackets fluid %d != packet %d",
						id("ctl"), h, seed, fl.ControlPackets, pk.ControlPackets)
				}
				if fl.ActivePeers != pk.ActivePeers {
					t.Errorf("%s h=%d seed=%d: ActivePeers fluid %d != packet %d",
						id("active"), h, seed, fl.ActivePeers, pk.ActivePeers)
				}
				if pk.ReceiptRate == 0 {
					t.Fatalf("%s h=%d seed=%d: packet plane measured no arrivals; the comparison is vacuous", proto, h, seed)
				}
				if rel := math.Abs(fl.ReceiptRate-pk.ReceiptRate) / pk.ReceiptRate; rel > receiptRateTol {
					t.Errorf("%s h=%d seed=%d: ReceiptRate fluid %.5f vs packet %.5f (rel %.4f > %v)",
						id("rate"), h, seed, fl.ReceiptRate, pk.ReceiptRate, rel, receiptRateTol)
				}
				for i := range pk.PeerSent {
					if d := fl.PeerSent[i] - pk.PeerSent[i]; d < -1 || d > 1 {
						t.Errorf("%s h=%d seed=%d: PeerSent[%d] fluid %d vs packet %d",
							id("sent"), h, seed, i, fl.PeerSent[i], pk.PeerSent[i])
					}
				}
			}
		}
	}
}

// At zero jitter, Bernoulli loss leaves the control trajectory
// identical across planes: the packet plane's data sends draw their
// verdicts on the links to the leaf only, each link on its own stream.
func TestFluidConformanceExactUnderLoss(t *testing.T) {
	for _, proto := range []coord.Protocol{coord.DCoP, coord.TCoP} {
		for _, h := range []int{5, 10} {
			for seed := int64(1); seed <= 3; seed++ {
				cfg := fluidBaseConfig(40, h, seed)
				cfg.LossProb = 0.05
				pk, err := coord.Run(proto, cfg)
				if err != nil {
					t.Fatalf("%s packet run: %v", proto, err)
				}
				cfg.PlaneMode = coord.PlaneFluid
				fl, err := coord.Run(proto, cfg)
				if err != nil {
					t.Fatalf("%s fluid run: %v", proto, err)
				}
				if pk.NetStats.Dropped == 0 {
					t.Fatalf("%s h=%d seed=%d: the packet plane lost nothing; the comparison is vacuous", proto, h, seed)
				}
				got := [4]float64{fl.SyncTime, float64(fl.Rounds), float64(fl.ControlPackets), float64(fl.ActivePeers)}
				want := [4]float64{pk.SyncTime, float64(pk.Rounds), float64(pk.ControlPackets), float64(pk.ActivePeers)}
				if got != want {
					t.Errorf("%s h=%d seed=%d: fluid (sync, rounds, controls, active) %v != packet %v", proto, h, seed, got, want)
				}
			}
		}
	}
}

// With Bernoulli loss (and the default jitter) the planes no longer
// share a trajectory: the fluid receipt rate is the expectation, the
// packet one a sample. Averaged over seeds they must agree within 10%.
func TestFluidConformanceUnderLoss(t *testing.T) {
	const seeds = 5
	const tol = 0.10
	for _, proto := range []coord.Protocol{coord.DCoP, coord.TCoP} {
		var pkSum, flSum float64
		for seed := int64(1); seed <= seeds; seed++ {
			cfg := fluidBaseConfig(40, 8, seed)
			cfg.Jitter = 0.05
			cfg.LossProb = 0.05
			pk, err := coord.Run(proto, cfg)
			if err != nil {
				t.Fatalf("%s packet run: %v", proto, err)
			}
			cfg.PlaneMode = coord.PlaneFluid
			fl, err := coord.Run(proto, cfg)
			if err != nil {
				t.Fatalf("%s fluid run: %v", proto, err)
			}
			pkSum += pk.ReceiptRate
			flSum += fl.ReceiptRate
		}
		pkMean, flMean := pkSum/seeds, flSum/seeds
		if pkMean == 0 {
			t.Fatalf("%s: packet plane measured no arrivals under loss", proto)
		}
		if rel := math.Abs(flMean-pkMean) / pkMean; rel > tol {
			t.Errorf("%s: mean ReceiptRate fluid %.4f vs packet %.4f (rel %.3f > %v)",
				proto, flMean, pkMean, rel, tol)
		}
	}
}

// A mid-run crash must thin the fluid arrival integral the same way the
// packet plane's dropped sends thin its window counts.
func TestFluidConformanceWithCrash(t *testing.T) {
	cfg := fluidBaseConfig(40, 8, 1)
	// Mid-window: flows are up, then two go dark.
	cfg.Churn = &coord.ChurnSchedule{Events: []coord.ChurnEvent{{At: 40, Peer: 3}, {At: 40, Peer: 7}}}
	pk, err := coord.Run(coord.DCoP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PlaneMode = coord.PlaneFluid
	fl, err := coord.Run(coord.DCoP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pk.ReceiptRate == 0 {
		t.Fatal("packet plane measured no arrivals; crash comparison is vacuous")
	}
	if rel := math.Abs(fl.ReceiptRate-pk.ReceiptRate) / pk.ReceiptRate; rel > receiptRateTol {
		t.Errorf("ReceiptRate with crash: fluid %.5f vs packet %.5f (rel %.4f)",
			fl.ReceiptRate, pk.ReceiptRate, rel)
	}
	// The crash must actually bite, or the test proves nothing.
	nocrash := fluidBaseConfig(40, 8, 1)
	nocrash.PlaneMode = coord.PlaneFluid
	whole, err := coord.Run(coord.DCoP, nocrash)
	if err != nil {
		t.Fatal(err)
	}
	if fl.ReceiptRate >= whole.ReceiptRate {
		t.Errorf("crashed run's rate %.5f not below un-crashed %.5f", fl.ReceiptRate, whole.ReceiptRate)
	}
}

// The fluid plane models flows, not packet identities; configurations
// that need per-packet state must be rejected up front.
func TestFluidRejectsPacketOnlyFeatures(t *testing.T) {
	base := func() coord.Config {
		cfg := fluidBaseConfig(10, 3, 1)
		cfg.PlaneMode = coord.PlaneFluid
		return cfg
	}
	cases := map[string]func(*coord.Config){
		"no data plane": func(c *coord.Config) { c.DataPlane = false },
		"no loop":       func(c *coord.Config) { c.Loop = false },
		"playback":      func(c *coord.Config) { c.Playback = true },
		"repair":        func(c *coord.Config) { c.Repair = true },
		"leaf rate":     func(c *coord.Config) { c.LeafMaxRate = 1 },
		"burst": func(c *coord.Config) {
			c.Burst = &transport.BurstParams{PGoodToBad: 0.1, PBadToGood: 0.5, LossBad: 0.9}
		},
	}
	for name, mutate := range cases {
		cfg := base()
		mutate(&cfg)
		if _, err := coord.Run(coord.DCoP, cfg); err == nil {
			t.Errorf("%s: fluid run accepted a packet-only feature", name)
		}
	}
	if _, err := coord.Run(coord.DCoP, base()); err != nil {
		t.Errorf("baseline fluid config must be accepted: %v", err)
	}
}
