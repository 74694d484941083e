package experiment

import (
	"errors"
	"strings"
	"testing"

	"p2pmss/internal/coord"
)

// smallOpts keeps unit-test sweeps fast; the full paper-scale sweeps run
// from the benchmark harness and cmd/mssim.
func smallOpts() Options {
	return Options{
		N:          40,
		Hs:         []int{5, 10, 20, 40},
		Seeds:      2,
		LeafShares: true,
		Rate:       2,
		ContentLen: 4000,
		Window:     60,
	}
}

func TestFigure10Shape(t *testing.T) {
	s, err := Figure10(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 4 {
		t.Fatalf("points = %d", len(s.Points))
	}
	// Rounds decrease (weakly) as H grows.
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].Rounds > s.Points[i-1].Rounds {
			t.Errorf("rounds increased from H=%d (%v) to H=%d (%v)",
				s.Points[i-1].H, s.Points[i-1].Rounds, s.Points[i].H, s.Points[i].Rounds)
		}
	}
	// At H=N a single round suffices: the leaf reaches everyone directly.
	last := s.Points[len(s.Points)-1]
	if last.SyncRounds != 1 {
		t.Errorf("H=N sync rounds = %v, want 1", last.SyncRounds)
	}
}

func TestFigure11Shape(t *testing.T) {
	o := smallOpts()
	d, err := Figure10(o)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := Figure11(o)
	if err != nil {
		t.Fatal(err)
	}
	// TCoP's 3-round handshake: at every swept H below N, TCoP needs at
	// least as many rounds and at least as many control packets as DCoP.
	for i := range d.Points {
		dp, tp := d.Points[i], tc.Points[i]
		if dp.H == o.N {
			continue
		}
		if tp.Rounds < dp.Rounds {
			t.Errorf("H=%d: TCoP rounds %v < DCoP %v", dp.H, tp.Rounds, dp.Rounds)
		}
		if tp.ControlPackets < dp.ControlPackets {
			t.Errorf("H=%d: TCoP packets %v < DCoP %v", dp.H, tp.ControlPackets, dp.ControlPackets)
		}
	}
}

func TestFigure12Shape(t *testing.T) {
	o := smallOpts()
	o.Hs = []int{10, 20, 40}
	o.Seeds = 3
	d, tc, err := Figure12(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Points {
		dp, tp := d.Points[i], tc.Points[i]
		// Receipt rate is at least (approximately) the content rate —
		// the leaf is not starved.
		if dp.ReceiptRate < 0.9 || tp.ReceiptRate < 0.9 {
			t.Errorf("H=%d: starved leaf: dcop %.3f tcop %.3f", dp.H, dp.ReceiptRate, tp.ReceiptRate)
		}
		// And bounded: nothing floods the leaf at many times τ.
		if dp.ReceiptRate > 3 || tp.ReceiptRate > 3 {
			t.Errorf("H=%d: excessive rate: dcop %.3f tcop %.3f", dp.H, dp.ReceiptRate, tp.ReceiptRate)
		}
	}
	// The paper's comparison at mid/large H: TCoP's per-node parity
	// intervals cost more than DCoP's global interval.
	dLast, tLast := d.Points[len(d.Points)-1], tc.Points[len(tc.Points)-1]
	if tLast.ReceiptRate < dLast.ReceiptRate-0.05 {
		t.Errorf("H=%d: TCoP rate %.3f well below DCoP %.3f (paper: TCoP higher)",
			dLast.H, tLast.ReceiptRate, dLast.ReceiptRate)
	}
	// Rates fall toward 1 as H grows (fewer parity packets, §4).
	if d.Points[0].ReceiptRate < d.Points[len(d.Points)-1].ReceiptRate {
		t.Errorf("DCoP rate not decreasing in H: %v", d.Points)
	}
}

// TestPaperQuotedPoints pins the paper's quoted H = 60 points at its own
// setting (n = 100, 5 seeds): the values EXPERIMENTS.md compares against
// the paper, which no re-draw of the random streams may move.
func TestPaperQuotedPoints(t *testing.T) {
	o := DefaultOptions()
	o.Hs = []int{60}
	d, err := Figure10(o)
	if err != nil {
		t.Fatal(err)
	}
	if p := d.Points[0]; p.Rounds != 2 || p.ControlPackets != 2460 {
		t.Errorf("Figure 10 H=60: %v rounds, %v control packets; want 2 and 2460", p.Rounds, p.ControlPackets)
	}
	unshared := o
	unshared.LeafShares = false
	tc, err := Figure11(unshared)
	if err != nil {
		t.Fatal(err)
	}
	if p := tc.Points[0]; p.ControlPackets != 7300 {
		t.Errorf("Figure 11 unshared H=60: %v control packets, want 7300", p.ControlPackets)
	}
	d, tc, err = Figure12(o)
	if err != nil {
		t.Fatal(err)
	}
	dr, tr := d.Points[0].ReceiptRate, tc.Points[0].ReceiptRate
	if tr <= dr {
		t.Errorf("Figure 12 H=60: TCoP rate %.3f not above DCoP %.3f", tr, dr)
	}
	for _, r := range []float64{dr, tr} {
		if r < 1 || r > 1.15 {
			t.Errorf("Figure 12 H=60: rate %.3f outside [1, 1.15]", r)
		}
	}
}

func TestBaselinesTable(t *testing.T) {
	o := smallOpts()
	o.Seeds = 1
	rows, err := Baselines(o, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(coord.Protocols) {
		t.Fatalf("rows = %d, want %d", len(rows), len(coord.Protocols))
	}
	byName := map[string]BaselineRow{}
	for _, r := range rows {
		byName[r.Protocol] = r
	}
	// §3.1 trade-offs.
	if byName["broadcast"].SyncRounds != 1 {
		t.Errorf("broadcast sync rounds = %v", byName["broadcast"].SyncRounds)
	}
	if byName["unicast"].SyncRounds != float64(o.N) {
		t.Errorf("unicast sync rounds = %v, want n", byName["unicast"].SyncRounds)
	}
	if byName["broadcast"].ControlPackets <= byName["dcop"].ControlPackets {
		t.Error("broadcast should cost more control packets than DCoP")
	}
	if byName["unicast"].ControlPackets >= byName["dcop"].ControlPackets {
		t.Error("unicast should cost fewer control packets than DCoP")
	}
	if byName["centralized"].SyncRounds < 3 {
		t.Errorf("centralized sync rounds = %v, want >= 3", byName["centralized"].SyncRounds)
	}
}

func TestOptionsNormalize(t *testing.T) {
	var o Options
	o.normalize()
	if o.N != 100 || o.Seeds != 5 || len(o.Hs) == 0 {
		t.Errorf("defaults not applied: %+v", o)
	}
	// A negative seed count picks the default too: the per-H record
	// slices of SeriesFromRecords need a positive count.
	o = Options{Seeds: -1}
	o.normalize()
	if o.Seeds != 5 {
		t.Errorf("Seeds -1 normalized to %d", o.Seeds)
	}
	// Hs beyond N are filtered.
	o = Options{N: 30}
	o.normalize()
	for _, h := range o.Hs {
		if h > 30 {
			t.Errorf("H=%d beyond N", h)
		}
	}
}

func TestRendering(t *testing.T) {
	o := smallOpts()
	o.Hs = []int{5}
	o.Seeds = 1
	s, err := Figure10(o)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	FprintSeries(&b, "Figure 10", s)
	out := b.String()
	if !strings.Contains(out, "Figure 10") || !strings.Contains(out, "control-packets") {
		t.Errorf("table output: %q", out)
	}
	csv := SeriesCSV(s)
	if !strings.HasPrefix(csv, "protocol,h,") || !strings.Contains(csv, "dcop,5,") {
		t.Errorf("csv output: %q", csv)
	}
	var b2 strings.Builder
	FprintBaselines(&b2, "Baselines", []BaselineRow{{Protocol: "dcop", Rounds: 2}})
	if !strings.Contains(b2.String(), "dcop") {
		t.Error("baseline table missing row")
	}
	var b3 strings.Builder
	FprintRateSeries(&b3, "Figure 12", s, s)
	if !strings.Contains(b3.String(), "DCoP rate") {
		t.Error("rate table missing header")
	}
}

func TestPaperReferenceValues(t *testing.T) {
	// Guard the constants documented in EXPERIMENTS.md.
	if PaperReference.Fig10H60Rounds != 2 || PaperReference.Fig11H60Rounds != 6 {
		t.Error("paper reference rounds changed")
	}
	if PaperReference.Fig12H60DCoP >= PaperReference.Fig12H60TCoP {
		t.Error("paper reference rates inverted")
	}
}

func TestMinStartupDelay(t *testing.T) {
	cfg := coord.DefaultConfig()
	cfg.N = 12
	cfg.H = 5
	cfg.Interval = 3
	cfg.DataPlane = true
	cfg.Loop = false
	cfg.ContentLen = 300
	cfg.Rate = 5
	d, err := minStartupDelay(coord.DCoP, cfg, 50, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || d >= 50 {
		t.Errorf("minimal startup delay = %v", d)
	}
	// Verify it is actually sufficient.
	cfg.Playback = true
	cfg.PlaybackDelay = d + 0.5
	res, err := coord.Run(coord.DCoP, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Underruns != 0 {
		t.Errorf("delay %v still yields %d underruns", d, res.Underruns)
	}
}

// minStartupDelay binary-searches the smallest playback startup delay
// (in δ units, to the given precision) that yields glitch-free playout
// (zero underruns) for the protocol under cfg — the §1 real-time
// constraint turned into a measurable quantity.
func minStartupDelay(protocol string, cfg coord.Config, maxDelay, precision float64) (float64, error) {
	underrunsAt := func(d float64) (int64, error) {
		c := cfg
		c.Playback = true
		c.PlaybackDelay = d
		res, err := coord.Run(protocol, c)
		if err != nil {
			return 0, err
		}
		return res.Underruns, nil
	}
	if u, err := underrunsAt(maxDelay); err != nil {
		return 0, err
	} else if u > 0 {
		return maxDelay, errors.New("underruns persist at the largest delay")
	}
	lo, hi := 0.0, maxDelay
	for hi-lo > precision {
		mid := (lo + hi) / 2
		u, err := underrunsAt(mid)
		if err != nil {
			return 0, err
		}
		if u == 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

func TestSweepReportsCI(t *testing.T) {
	o := smallOpts()
	o.Hs = []int{5}
	o.Seeds = 4
	s, err := Figure10(o)
	if err != nil {
		t.Fatal(err)
	}
	p := s.Points[0]
	if p.ControlPacketsCI < 0 || p.RoundsCI < 0 {
		t.Errorf("negative CI: %+v", p)
	}
}
