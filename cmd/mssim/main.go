// Command mssim regenerates the paper's evaluation (§4) on the
// discrete-event simulator.
//
// Usage:
//
//	mssim -fig 10              # DCoP rounds & control packets vs H
//	mssim -fig 11              # TCoP rounds & control packets vs H
//	mssim -fig 12              # leaf receipt rate vs H (DCoP and TCoP)
//	mssim -fig baselines       # §3.1 baseline comparison at -h-fixed
//	mssim -fig scale -data-plane fluid   # receipt rate & rounds vs n up to 10⁵ peers
//	mssim -fig all             # everything (scale excluded; run it explicitly)
//	mssim -fig 10 -csv         # machine-readable output (averaged points)
//	mssim -fig 10 -json        # one JSON line per (H, seed) run, with metrics
//	mssim -fig 10 -n 100 -seeds 5 -hs 2,10,60,100
//	mssim -fig 10 -noshare     # leaf does not share its initial selection
//	mssim -fig 12 -parallel 1  # serial sweep (output identical to parallel)
//	mssim -fig 11 -trace-out t.jsonl   # also export causal spans (msstrace perfetto t.jsonl)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"p2pmss/internal/coord"
	"p2pmss/internal/experiment"
	"p2pmss/internal/span"
	"p2pmss/internal/svgplot"
	"p2pmss/internal/transport"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: 10, 11, 12, baselines, all")
		n        = flag.Int("n", 100, "number of contents peers")
		seeds    = flag.Int("seeds", 5, "seeds averaged per point")
		hs       = flag.String("hs", "", "comma-separated H values (default paper sweep)")
		hFixed   = flag.Int("h-fixed", 10, "fanout for the baseline comparison")
		csv      = flag.Bool("csv", false, "emit CSV instead of tables")
		jsonOut  = flag.Bool("json", false, "emit one JSON line per (H, seed) run — full result plus metrics snapshot")
		noshare  = flag.Bool("noshare", false, "leaf request does not carry the selected set")
		svgDir   = flag.String("svg", "", "also render figures as SVG into this directory")
		parallel = flag.Int("parallel", runtime.NumCPU(),
			"worker goroutines for sweep points (1 = serial; output is byte-identical at any setting)")
		retries = flag.Int("retries", 0,
			"alternate-peer retries per failed child slot (0 = coordination default)")
		hsTimeout = flag.Float64("handshake-timeout", 0,
			"control/confirm handshake deadline in virtual seconds (0 = coordination default)")
		traceOut = flag.String("trace-out", "",
			"write causal coordination spans (JSONL) to this file; convert with msstrace perfetto/summary")
		loss = flag.Float64("loss", 0,
			"independent per-message drop probability in [0,1); stamped into -json records as the run scenario")
		burst = flag.String("burst", "",
			"Gilbert–Elliott bursty loss as pGoodToBad,pBadToGood,lossGood,lossBad (e.g. 0.01,0.2,0,0.5)")
		dataPlane = flag.String("data-plane", "packet",
			"data-plane mode for data-plane figures (12, scale, baselines): packet (per-packet DES events) or fluid (closed-form flow rates; required for -fig scale ceilings)")
		ns = flag.String("ns", "10000,20000,50000,100000",
			"comma-separated overlay sizes for -fig scale")
	)
	flag.Parse()

	o := experiment.DefaultOptions()
	o.N = *n
	o.Seeds = *seeds
	o.LeafShares = !*noshare
	o.Parallel = *parallel
	o.Retries = *retries
	o.HandshakeTimeout = *hsTimeout
	o.LossProb = *loss
	if *burst != "" {
		bp, err := transport.ParseBurst(*burst)
		if err != nil {
			fatal(err)
		}
		o.Burst = bp
	}
	switch *dataPlane {
	case "", "packet":
		o.PlaneMode = coord.PlanePacket
	case "fluid":
		o.PlaneMode = coord.PlaneFluid
	default:
		fatal(fmt.Errorf("unknown -data-plane %q (want packet or fluid)", *dataPlane))
	}
	if *hs != "" {
		o.Hs = nil
		for _, part := range strings.Split(*hs, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fatal(fmt.Errorf("bad -hs entry %q: %w", part, err))
			}
			o.Hs = append(o.Hs, v)
		}
	}

	run := func(name string) bool { return *fig == "all" || *fig == name }
	if *jsonOut && !run("10") && !run("11") && !run("12") && !run("baselines") {
		fatal(fmt.Errorf("-json supports -fig 10, 11, 12, baselines, all (got %q)", *fig))
	}

	// Every figure runs the records path. With -json the records are the
	// output: one line per run, with a metrics snapshot (instrumentation
	// never perturbs the simulation, and snapshots are sorted). Spans are
	// collected only for -trace-out and go to that file, so stdout is
	// byte-identical to an untraced run.
	o.Instrument = *jsonOut
	o.CollectSpans = *traceOut != ""
	var spans []span.Span
	records := func(recs []experiment.RunRecord, err error) []experiment.RunRecord {
		if err != nil {
			fatal(err)
		}
		spans = append(spans, experiment.Spans(recs)...)
		if *jsonOut {
			if err := experiment.WriteRecordsJSONL(os.Stdout, recs); err != nil {
				fatal(err)
			}
		}
		return recs
	}
	defer func() {
		if *traceOut == "" {
			return
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := span.WriteJSONL(f, spans); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}()
	svg := func(name string, c *svgplot.Chart) {
		if *svgDir == "" {
			return
		}
		if err := experiment.WriteSVG(*svgDir, name, c); err != nil {
			fatal(err)
		}
	}
	rounds := func(proto, fig, title string) {
		recs := records(experiment.SweepRecords(o, false, proto))
		if *jsonOut {
			return
		}
		s := experiment.SeriesFromRecords(proto, o, recs)
		if *csv {
			fmt.Print(experiment.SeriesCSV(s))
		} else {
			experiment.FprintSeries(os.Stdout, "Figure "+fig+": rounds and control packets in "+title, s)
			fmt.Println()
		}
		svg("figure"+fig, experiment.RoundsChart("Figure "+fig+": "+title, s))
	}

	if run("10") {
		rounds(coord.DCoP, "10", "DCoP")
	}
	if run("11") {
		rounds(coord.TCoP, "11", "TCoP")
	}
	if run("12") {
		recs := records(experiment.SweepRecords(o, true, coord.DCoP, coord.TCoP))
		if !*jsonOut {
			d := experiment.SeriesFromRecords(coord.DCoP, o, recs)
			t := experiment.SeriesFromRecords(coord.TCoP, o, recs)
			if *csv {
				fmt.Print(experiment.SeriesCSV(d))
				fmt.Print(experiment.SeriesCSV(t))
			} else {
				experiment.FprintRateSeries(os.Stdout, "Figure 12: receipt rate of leaf peer", d, t)
				fmt.Println()
			}
			svg("figure12", experiment.RateChart("Figure 12: receipt rate of leaf peer", d, t))
		}
	}
	if run("baselines") {
		recs := records(experiment.BaselineRecords(o, *hFixed))
		if !*jsonOut {
			experiment.FprintBaselines(os.Stdout,
				fmt.Sprintf("Baseline comparison (§3.1) at n=%d, H=%d", o.N, *hFixed),
				experiment.BaselinesFromRecords(recs))
			fmt.Println()
		}
	}
	if *jsonOut {
		return
	}
	if run("gossip") {
		pts, err := experiment.GossipCoverage(o.N, nil, o.Seeds*2)
		if err != nil {
			fatal(err)
		}
		experiment.FprintGossipCoverage(os.Stdout, o.N, pts)
		fmt.Println()
	}
	// The scale sweep is explicitly requested, never part of -fig all: at
	// its default ceiling (n = 10⁵) a point takes tens of seconds even on
	// the fluid plane, and on the packet plane it is intentionally
	// unreachable.
	if *fig == "scale" {
		sizes, err := parseNs(*ns)
		if err != nil {
			fatal(err)
		}
		for _, proto := range []string{coord.DCoP, coord.TCoP} {
			pts, err := experiment.ScaleCurve(proto, o, *hFixed, sizes)
			if err != nil {
				fatal(err)
			}
			if *csv {
				fmt.Print(experiment.ScaleCurveCSV(proto, pts))
			} else {
				experiment.FprintScaleCurve(os.Stdout,
					fmt.Sprintf("Scale sweep (%s, H=%d, %s plane): coordination and receipt rate vs n",
						proto, *hFixed, o.PlaneMode), pts)
				fmt.Println()
			}
		}
		return
	}
	if !run("10") && !run("11") && !run("12") && !run("baselines") && !run("gossip") {
		fatal(fmt.Errorf("unknown -fig %q (want 10, 11, 12, baselines, gossip, scale, all)", *fig))
	}
}

// parseNs decodes the -ns flag's comma-separated overlay sizes.
func parseNs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -ns entry %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mssim:", err)
	os.Exit(1)
}
