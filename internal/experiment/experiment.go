// Package experiment regenerates the paper's evaluation (§4): Figure 10
// (DCoP rounds and control packets vs H), Figure 11 (the same for TCoP),
// Figure 12 (leaf receipt rate vs H for both protocols), and a baseline
// comparison table for the §3.1 coordination schemes. Every figure runs
// one records runner (SweepRecords, BaselineRecords) and averages its
// per-run records over seeds (SeriesFromRecords, BaselinesFromRecords);
// results are returned as printable tables, CSV and JSON Lines.
package experiment

import (
	"fmt"
	"io"
	"math"
	"strings"

	"p2pmss/internal/coord"
	"p2pmss/internal/gossip"
)

// Options parameterizes an experiment sweep.
type Options struct {
	// N is the number of contents peers (the paper uses 100).
	N int
	// Hs lists the fanout values to sweep.
	Hs []int
	// Seeds is how many independent runs are averaged per point; zero or
	// less picks the default.
	Seeds int
	// LeafShares mirrors coord.Config.LeafShares.
	LeafShares bool
	// Rate, ContentLen, Window tune the data-plane runs of Figure 12.
	Rate       float64
	ContentLen int64
	Window     float64
	// Retries and HandshakeTimeout tune the engine's churn tolerance
	// (see coord.Config); zero keeps the coordination defaults.
	Retries          int
	HandshakeTimeout float64
	// LossProb, Burst, and Churn impair every run of the sweep (see the
	// same-named coord.Config fields). When any is set, the scenario is
	// stamped into each RunRecord so a JSONL archive is self-describing
	// — a record read months later says what loss/churn it ran under.
	LossProb float64
	Burst    *coord.BurstParams
	Churn    *coord.ChurnSchedule
	// Parallel is the number of worker goroutines sweep points fan out
	// over: 0 or 1 runs serially, a negative value selects
	// runtime.NumCPU(). Every run is an isolated deterministic DES
	// instance and results are collected by grid index, so tables,
	// series and SVGs are byte-identical at any setting.
	Parallel int
	// PlaneMode selects the data-plane simulation strategy of data-plane
	// sweeps (coord.PlanePacket or coord.PlaneFluid; empty = packet).
	// Control-plane-only figures ignore it.
	PlaneMode coord.DataPlaneMode
	// Instrument attaches a fresh metrics registry to every run and
	// includes its snapshot in the JSON records (SweepRecords,
	// BaselineRecords). Instrumentation never perturbs results: series
	// and tables are byte-identical with it on or off.
	Instrument bool
	// CollectSpans attaches a fresh span collector to every run and
	// carries each run's causal trace in RunRecord.Spans (one trace per
	// grid point). Like Instrument, collection never perturbs results.
	CollectSpans bool
}

// DefaultOptions returns the paper's setting: n = 100, H swept over
// 2..100, averaged over 5 seeds.
func DefaultOptions() Options {
	return Options{
		N:          100,
		Hs:         []int{2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
		Seeds:      5,
		LeafShares: true,
		Rate:       2,
		ContentLen: 30000,
		Window:     200,
	}
}

func (o *Options) normalize() {
	d := DefaultOptions()
	if o.N == 0 {
		o.N = d.N
	}
	if len(o.Hs) == 0 {
		for _, h := range d.Hs {
			if h <= o.N {
				o.Hs = append(o.Hs, h)
			}
		}
	}
	if o.Seeds <= 0 {
		o.Seeds = d.Seeds
	}
	if o.Rate == 0 {
		o.Rate = d.Rate
	}
	if o.ContentLen == 0 {
		o.ContentLen = d.ContentLen
	}
	if o.Window == 0 {
		o.Window = d.Window
	}
}

// Point is one averaged sweep point. The *CI fields are 95% confidence
// half-widths of the corresponding means across seeds.
type Point struct {
	H              int
	Rounds         float64 // mean rounds to quiescence
	SyncRounds     float64 // mean rounds to full activation
	ControlPackets float64
	ActivePeers    float64
	SyncTime       float64
	ReceiptRate    float64
	DupRate        float64 // duplicate fraction of window arrivals

	RoundsCI, ControlPacketsCI, ReceiptRateCI float64
}

// Series is a sweep over H for one protocol.
type Series struct {
	Protocol string
	Points   []Point
}

// pointConfig resolves the coordination config of one sweep point.
func (o Options) pointConfig(H, seed int, dataPlane bool) coord.Config {
	cfg := coord.DefaultConfig()
	cfg.N = o.N
	cfg.H = H
	cfg.Seed = int64(seed + 1)
	cfg.LeafShares = o.LeafShares
	if o.Retries != 0 {
		cfg.Retries = o.Retries
	}
	if o.HandshakeTimeout != 0 {
		cfg.HandshakeTimeout = o.HandshakeTimeout
	}
	cfg.LossProb = o.LossProb
	cfg.Burst = o.Burst
	cfg.Churn = o.Churn
	if dataPlane {
		cfg.DataPlane = true
		cfg.PlaneMode = o.PlaneMode
		cfg.Rate = o.Rate
		cfg.ContentLen = o.ContentLen
		cfg.Window = o.Window
	}
	return cfg
}

// checkHs rejects sweep points outside 1..N up front, so a caller asking
// for an out-of-range sweep gets an error instead of a silently shorter
// series.
func (o Options) checkHs() error {
	for _, H := range o.Hs {
		if H < 1 || H > o.N {
			return fmt.Errorf("experiment: sweep point H=%d out of range 1..N=%d", H, o.N)
		}
	}
	return nil
}

// sweepJobs lays out the (H, seed) grid of one protocol's sweep in the
// order SeriesFromRecords reads it.
func sweepJobs(protocol string, o Options, dataPlane bool) []runJob {
	jobs := make([]runJob, 0, len(o.Hs)*o.Seeds)
	for _, H := range o.Hs {
		for seed := 0; seed < o.Seeds; seed++ {
			jobs = append(jobs, runJob{protocol, o.pointConfig(H, seed, dataPlane)})
		}
	}
	return jobs
}

// point averages one grid point's runs (one per seed).
func point(H int, recs []RunRecord) Point {
	var rounds, syncRounds, packets, active, syncTime, rate, dup sample
	for _, r := range recs {
		res := r.Result
		rounds.Add(float64(res.Rounds))
		syncRounds.Add(float64(res.SyncRounds))
		packets.Add(float64(res.ControlPackets))
		active.Add(float64(res.ActivePeers))
		syncTime.Add(res.SyncTime)
		rate.Add(res.ReceiptRate)
		if tot := res.DataPackets + res.ParityPackets + res.DupPackets; tot > 0 {
			dup.Add(float64(res.DupPackets) / float64(tot))
		} else {
			dup.Add(0)
		}
	}
	return Point{
		H:                H,
		Rounds:           rounds.Mean(),
		SyncRounds:       syncRounds.Mean(),
		ControlPackets:   packets.Mean(),
		ActivePeers:      active.Mean(),
		SyncTime:         syncTime.Mean(),
		ReceiptRate:      rate.Mean(),
		DupRate:          dup.Mean(),
		RoundsCI:         rounds.CI95(),
		ControlPacketsCI: packets.CI95(),
		ReceiptRateCI:    rate.CI95(),
	}
}

// protocolRecords returns the records of one protocol, in record order.
func protocolRecords(protocol string, recs []RunRecord) []RunRecord {
	var out []RunRecord
	for _, r := range recs {
		if r.Protocol == protocol {
			out = append(out, r)
		}
	}
	return out
}

// SeriesFromRecords averages the protocol's records (SweepRecords grid
// order, Options.Seeds per H) into one point per Options.Hs entry.
func SeriesFromRecords(protocol string, o Options, recs []RunRecord) Series {
	o.normalize()
	recs = protocolRecords(protocol, recs)
	s := Series{Protocol: protocol}
	for i, H := range o.Hs {
		s.Points = append(s.Points, point(H, recs[i*o.Seeds:(i+1)*o.Seeds]))
	}
	return s
}

// figure runs one protocol's sweep and averages it.
func figure(protocol string, o Options, dataPlane bool) (Series, error) {
	recs, err := SweepRecords(o, dataPlane, protocol)
	if err != nil {
		return Series{}, err
	}
	return SeriesFromRecords(protocol, o, recs), nil
}

// Figure10 reproduces "Rounds and number of control packets in DCoP".
func Figure10(o Options) (Series, error) { return figure(coord.DCoP, o, false) }

// Figure11 reproduces "Rounds and number of control packets in TCoP".
func Figure11(o Options) (Series, error) { return figure(coord.TCoP, o, false) }

// Figure12 reproduces "Receipt rate of leaf peer" for DCoP and TCoP.
// Both protocols' grids run on one worker pool so the sweep has a single
// fan-out barrier instead of two.
func Figure12(o Options) (dcop, tcop Series, err error) {
	recs, err := SweepRecords(o, true, coord.DCoP, coord.TCoP)
	if err != nil {
		return Series{}, Series{}, err
	}
	return SeriesFromRecords(coord.DCoP, o, recs), SeriesFromRecords(coord.TCoP, o, recs), nil
}

// BaselineRow is one protocol's entry in the baseline comparison.
type BaselineRow struct {
	Protocol       string
	Rounds         float64
	SyncRounds     float64
	ControlPackets float64
	SyncTime       float64
	ReceiptRate    float64
}

// Baselines compares all five coordination protocols at a fixed H,
// quantifying §3.1's trade-offs (broadcast: 1 round but O(n²) packets;
// unicast: n packets but n rounds; centralized: 3+ rounds; DCoP/TCoP in
// between).
func Baselines(o Options, H int) ([]BaselineRow, error) {
	recs, err := BaselineRecords(o, H)
	if err != nil {
		return nil, err
	}
	return BaselinesFromRecords(recs), nil
}

// BaselinesFromRecords averages BaselineRecords' runs into one row per
// protocol, in coord.Protocols order.
func BaselinesFromRecords(recs []RunRecord) []BaselineRow {
	rows := make([]BaselineRow, 0, len(coord.Protocols))
	for _, proto := range coord.Protocols {
		p := point(0, protocolRecords(proto, recs))
		rows = append(rows, BaselineRow{
			Protocol:       proto,
			Rounds:         p.Rounds,
			SyncRounds:     p.SyncRounds,
			ControlPackets: p.ControlPackets,
			SyncTime:       p.SyncTime,
			ReceiptRate:    p.ReceiptRate,
		})
	}
	return rows
}

// GossipCoveragePoint is one fanout's mean coverage.
type GossipCoveragePoint struct {
	Fanout   int
	Coverage float64 // mean infected fraction
}

// GossipCoverage sweeps the gossip fanout and reports mean coverage —
// the reference-[6] phase transition explaining why DCoP needs H ≳ ln n
// to synchronize every contents peer.
func GossipCoverage(n int, fanouts []int, seeds int) ([]GossipCoveragePoint, error) {
	if len(fanouts) == 0 {
		fanouts = []int{1, 2, 3, 4, 5, 7, 10, 15}
	}
	if seeds <= 0 {
		seeds = 10
	}
	curve, err := gossip.CoverageCurve(n, fanouts, seeds, false)
	if err != nil {
		return nil, err
	}
	out := make([]GossipCoveragePoint, 0, len(fanouts))
	for _, f := range fanouts {
		out = append(out, GossipCoveragePoint{Fanout: f, Coverage: curve[f]})
	}
	return out, nil
}

// FprintGossipCoverage renders the coverage sweep.
func FprintGossipCoverage(w io.Writer, n int, pts []GossipCoveragePoint) {
	fmt.Fprintf(w, "Gossip coverage vs fanout (n=%d; ref [6] phase transition at ≈ln n = %.1f)\n",
		n, math.Log(float64(n)))
	fmt.Fprintf(w, "%8s %12s\n", "fanout", "coverage")
	for _, p := range pts {
		fmt.Fprintf(w, "%8d %11.1f%%\n", p.Fanout, p.Coverage*100)
	}
}

// MinStartupDelay binary-searches the smallest playback startup delay
// (in δ units, to the given precision) that yields glitch-free playout
// (zero underruns) for the protocol under cfg — the §1 real-time
// constraint turned into a measurable quantity.
func MinStartupDelay(protocol string, cfg coord.Config, maxDelay, precision float64) (float64, error) {
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
		return maxDelay, fmt.Errorf("experiment: underruns persist at max delay %v", maxDelay)
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

// PaperReference holds the reference values quoted in the paper's text
// for comparison in EXPERIMENTS.md.
var PaperReference = struct {
	Fig10H60Rounds  float64 // "two rounds ... for H = 60"
	Fig10H60Packets float64 // "about 600 control packets"
	Fig11H60Rounds  float64 // "six rounds"
	Fig11H60Packets float64 // "about 7400 control packets"
	Fig12H60DCoP    float64 // "rate = 1.019 in DCoP"
	Fig12H60TCoP    float64 // "rate = 1.226 in TCoP"
}{2, 600, 6, 7400, 1.019, 1.226}

// ---- rendering ----------------------------------------------------------

// FprintSeries renders a coordination sweep as an aligned table.
func FprintSeries(w io.Writer, title string, s Series) {
	fmt.Fprintf(w, "%s (protocol %s)\n", title, s.Protocol)
	fmt.Fprintf(w, "%6s %14s %12s %20s %12s %10s\n",
		"H", "rounds", "sync-rounds", "control-packets", "active", "sync-time")
	for _, p := range s.Points {
		fmt.Fprintf(w, "%6d %8.2f ±%4.2f %12.2f %13.1f ±%5.1f %12.1f %10.2f\n",
			p.H, p.Rounds, p.RoundsCI, p.SyncRounds, p.ControlPackets, p.ControlPacketsCI, p.ActivePeers, p.SyncTime)
	}
}

// FprintRateSeries renders a Figure 12 sweep pair.
func FprintRateSeries(w io.Writer, title string, dcop, tcop Series) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%6s %18s %18s %12s\n", "H", "DCoP rate", "TCoP rate", "DCoP dup%")
	tp := map[int]Point{}
	for _, p := range tcop.Points {
		tp[p.H] = p
	}
	for _, p := range dcop.Points {
		fmt.Fprintf(w, "%6d %10.3f ±%5.3f %10.3f ±%5.3f %12.1f\n",
			p.H, p.ReceiptRate, p.ReceiptRateCI, tp[p.H].ReceiptRate, tp[p.H].ReceiptRateCI, p.DupRate*100)
	}
}

// FprintBaselines renders the baseline comparison table.
func FprintBaselines(w io.Writer, title string, rows []BaselineRow) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-12s %8s %12s %16s %10s %12s\n",
		"protocol", "rounds", "sync-rounds", "control-packets", "sync-time", "receipt-rate")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %8.1f %12.1f %16.1f %10.2f %12.3f\n",
			r.Protocol, r.Rounds, r.SyncRounds, r.ControlPackets, r.SyncTime, r.ReceiptRate)
	}
}

// SeriesCSV renders a sweep as CSV.
func SeriesCSV(s Series) string {
	var b strings.Builder
	b.WriteString("protocol,h,rounds,sync_rounds,control_packets,active_peers,sync_time,receipt_rate,dup_rate\n")
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%s,%d,%.3f,%.3f,%.1f,%.1f,%.3f,%.4f,%.4f\n",
			s.Protocol, p.H, p.Rounds, p.SyncRounds, p.ControlPackets, p.ActivePeers, p.SyncTime, p.ReceiptRate, p.DupRate)
	}
	return b.String()
}
