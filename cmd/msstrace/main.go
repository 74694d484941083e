// Command msstrace runs one coordination simulation with the flight
// recorder attached and prints the timeline: every control packet sent
// and handled, activation, hand-off, timer, crash and repair request in
// virtual-time order. Useful for understanding how DCoP's flooding or
// TCoP's handshake actually unfolds.
//
// The timeline is the flight log — the one event record both runtimes
// write — so `msstrace flight` prints a live run's log (mssplay
// -flight-out, /debug/flight, or a SIGUSR1 dump) through the same
// formatter, filtered, or as a per-peer summary table.
//
// It also post-processes causal span traces written by mssim/mssplay
// -trace-out: `msstrace perfetto` converts a span JSONL file to Chrome
// trace-event JSON (open in https://ui.perfetto.dev, one track per
// peer), and `msstrace summary` prints per-session latency quantiles.
//
// Usage:
//
//	msstrace -proto dcop -n 20 -h 4
//	msstrace -proto tcop -n 12 -h 3 -kinds activate,handoff
//	msstrace -proto dcop -json | jq .type
//	msstrace perfetto trace.jsonl -o trace.json
//	msstrace summary trace.jsonl
//	msstrace flight flight.jsonl -summary
//	msstrace flight flight.jsonl -peer 3 -type send_commit
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"p2pmss"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "perfetto":
			runPerfetto(os.Args[2:])
			return
		case "summary":
			runSummary(os.Args[2:])
			return
		case "flight":
			runFlight(os.Args[2:])
			return
		}
	}
	runTimeline()
}

// splitInput peels a leading positional argument (the trace file) off
// the subcommand args, so flags may come before or after the file name
// (stdlib flag parsing stops at the first non-flag otherwise).
func splitInput(args []string) (input string, rest []string) {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		return args[0], args[1:]
	}
	return "", args
}

// openInput opens a subcommand's input file ("-" or no path is stdin).
func openInput(path string) io.ReadCloser {
	if path == "" || path == "-" {
		return os.Stdin
	}
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	return f
}

// readSpans loads a span JSONL trace.
func readSpans(path string) []p2pmss.Span {
	r := openInput(path)
	defer r.Close()
	spans, err := p2pmss.ReadSpansJSONL(r)
	if err != nil {
		fatal(err)
	}
	return spans
}

// runPerfetto converts a span JSONL trace (mssim/mssplay -trace-out)
// into Chrome trace-event JSON for the Perfetto UI.
func runPerfetto(args []string) {
	fs := flag.NewFlagSet("msstrace perfetto", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: msstrace perfetto [-o out.json] [trace.jsonl]")
		fs.PrintDefaults()
	}
	input, rest := splitInput(args)
	fs.Parse(rest) //nolint:errcheck // ExitOnError
	if input == "" {
		input = fs.Arg(0)
	}
	spans := readSpans(input)
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}
	if err := p2pmss.WriteSpansPerfetto(w, spans); err != nil {
		fatal(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "msstrace: %d spans -> %s (open in https://ui.perfetto.dev)\n", len(spans), *out)
	}
}

// runSummary prints per-session latency quantiles (p50/p95/p99 per span
// name) for a span JSONL trace.
func runSummary(args []string) {
	fs := flag.NewFlagSet("msstrace summary", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: msstrace summary [trace.jsonl]")
		fs.PrintDefaults()
	}
	input, rest := splitInput(args)
	fs.Parse(rest) //nolint:errcheck // ExitOnError
	if input == "" {
		input = fs.Arg(0)
	}
	p2pmss.PrintSpanSummary(os.Stdout, p2pmss.SummarizeSpans(readSpans(input)))
}

// runFlight lists or summarizes a per-peer flight log (JSONL) written
// by mssplay -flight-out, /debug/flight, or a SIGUSR1 dump.
func runFlight(args []string) {
	fs := flag.NewFlagSet("msstrace flight", flag.ExitOnError)
	peer := fs.Int("peer", -1, "only events of this peer id (-1 = all)")
	sess := fs.String("session", "", "only events of this session id")
	typ := fs.String("type", "", "only events of this type (e.g. send_commit, timer_confirm)")
	limit := fs.Int("limit", 0, "print at most this many events (0 = all)")
	summary := fs.Bool("summary", false, "print a per-(peer, type) summary table instead of events")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: msstrace flight [-peer N] [-session S] [-type T] [-limit N] [-summary] [flight.jsonl]")
		fs.PrintDefaults()
	}
	input, rest := splitInput(args)
	fs.Parse(rest) //nolint:errcheck // ExitOnError
	if input == "" {
		input = fs.Arg(0)
	}

	r := openInput(input)
	defer r.Close()
	all, err := p2pmss.ReadFlightJSONL(r)
	if err != nil {
		fatal(err)
	}
	events := all[:0:0]
	for _, e := range all {
		if *peer >= 0 && e.Peer != *peer {
			continue
		}
		if *sess != "" && e.Session != *sess {
			continue
		}
		if *typ != "" && e.Type != *typ {
			continue
		}
		events = append(events, e)
	}

	if *summary {
		fmt.Printf("%-10s %5s %-4s %-20s %8s %12s %12s\n",
			"session", "peer", "dir", "type", "count", "first", "last")
		for _, s := range p2pmss.SummarizeFlight(events) {
			fmt.Printf("%-10s %5d %-4s %-20s %8d %12.6f %12.6f\n",
				s.Session, s.Peer, s.Dir, s.Type, s.Count, s.First, s.Last)
		}
		fmt.Fprintf(os.Stderr, "msstrace: %d events (%d after filters)\n", len(all), len(events))
		return
	}

	printTimeline(os.Stdout, events, *limit)
	fmt.Fprintf(os.Stderr, "msstrace: %d events (%d after filters)\n", len(all), len(events))
}

// sortTimeline puts flight records in reading order: by time, ties
// broken by (session, peer, seq) so each peer's records keep their
// recorded order.
func sortTimeline(events []p2pmss.FlightEvent) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Session != b.Session {
			return a.Session < b.Session
		}
		if a.Peer != b.Peer {
			return a.Peer < b.Peer
		}
		return a.Seq < b.Seq
	})
}

// printTimeline writes flight records one per line in sortTimeline
// order. It is the only event formatter: a simulated run and a live
// flight dump read identically. A positive limit cuts the listing short.
func printTimeline(w io.Writer, events []p2pmss.FlightEvent, limit int) {
	sortTimeline(events)
	for i, e := range events {
		if limit > 0 && i >= limit {
			fmt.Fprintf(w, "... %d more (raise -limit)\n", len(events)-i)
			break
		}
		sessPrefix := ""
		if e.Session != "" {
			sessPrefix = e.Session + "/"
		}
		note := ""
		if e.Note != "" {
			note = " note=" + e.Note
		}
		fmt.Fprintf(w, "%12.6f %speer%-3d %-4s %-20s other=%-3d round=%-2d n=%d%s\n",
			e.T, sessPrefix, e.Peer, e.Dir, e.Type, e.Other, e.Round, e.N, note)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "msstrace:", err)
	os.Exit(1)
}

// simulate runs one coordination simulation with a flight set of the
// given per-peer ring size attached and returns the set.
func simulate(proto string, n, h int, seed int64, ringCap int) (*p2pmss.FlightSet, p2pmss.SimResult, error) {
	cfg := p2pmss.DefaultSimConfig()
	cfg.N = n
	cfg.H = h
	cfg.Seed = seed
	cfg.Obs.Flight = p2pmss.NewFlightSet(ringCap)
	res, err := p2pmss.Simulate(proto, cfg)
	return cfg.Obs.Flight, res, err
}

// runTimeline simulates one coordination run and prints its flight log.
func runTimeline() {
	var (
		proto   = flag.String("proto", p2pmss.DCoP, "protocol: dcop, tcop, broadcast, unicast, centralized, ams")
		n       = flag.Int("n", 20, "contents peers")
		fanout  = flag.Int("h", 4, "fanout H")
		seed    = flag.Int64("seed", 1, "random seed")
		kinds   = flag.String("kinds", "", "comma-separated record types to show, e.g. activate,send_control (default all)")
		limit   = flag.Int("limit", 512, "per-peer flight ring size; older records are evicted (must be positive)")
		jsonOut = flag.Bool("json", false, "emit the timeline as flight JSON Lines (one record per line)")
	)
	flag.Parse()

	if *limit <= 0 {
		fmt.Fprintf(os.Stderr, "msstrace: -limit %d must be positive\n", *limit)
		flag.Usage()
		os.Exit(2)
	}

	set, res, err := simulate(*proto, *n, *fanout, *seed, *limit)
	if err != nil {
		fatal(err)
	}
	events := set.Events()
	if *kinds != "" {
		show := make(map[string]bool)
		for _, k := range strings.Split(*kinds, ",") {
			show[strings.TrimSpace(k)] = true
		}
		kept := events[:0]
		for _, e := range events {
			if show[e.Type] {
				kept = append(kept, e)
			}
		}
		events = kept
	}
	if ev := set.Evicted(); ev > 0 {
		fmt.Fprintf(os.Stderr, "msstrace: %d records evicted (raise -limit)\n", ev)
	}

	// With -json stdout stays pure JSONL; the human summary goes to stderr.
	summary := os.Stdout
	if *jsonOut {
		summary = os.Stderr
		sortTimeline(events)
		if err := p2pmss.WriteFlightJSONL(os.Stdout, events); err != nil {
			fatal(err)
		}
	} else {
		printTimeline(os.Stdout, events, 0)
		fmt.Println()
	}
	fmt.Fprintf(summary, "%s: %d/%d peers active, %d rounds, %d control packets, sync at t=%.2f\n",
		res.Protocol, res.ActivePeers, *n, res.Rounds, res.ControlPackets, res.SyncTime)
}
