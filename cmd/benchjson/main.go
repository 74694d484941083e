// Command benchjson converts `go test -bench` output on stdin into a
// JSON document on stdout (or -o file), so CI can archive benchmark
// results as a machine-readable artifact (BENCH_engine.json,
// BENCH_span.json).
//
// With -assert-zero-allocs PREFIX it additionally fails (exit 1) if any
// benchmark whose name starts with PREFIX reports a non-zero allocs/op
// — the CI gate keeping the disabled-tracing path allocation-free.
//
// With -assert-max-allocs PREFIX=N[,PREFIX=N...] it fails (exit 1) if
// any benchmark whose name starts with PREFIX reports more than N
// allocs/op — the CI gate keeping the pooled coordination round
// near-zero-alloc without demanding literal zero. A benchmark several
// prefixes match answers to the longest of them.
//
//	go test -run='^$' -bench=. -benchmem ./internal/engine | benchjson -o BENCH_engine.json
//	go test -run='^$' -bench=SpanDisabled -benchmem ./internal/engine | \
//	    benchjson -assert-zero-allocs BenchmarkSpanDisabled -o BENCH_span.json
//	go test -run='^$' -bench='^BenchmarkEngine' -benchmem ./internal/engine | \
//	    benchjson -assert-max-allocs BenchmarkEngine=100 -o BENCH_engine.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Metrics holds every other value of the line by unit: MB/s, and
	// what the benchmark reported with b.ReportMetric (e.g. "ns/pkt").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the emitted document.
type Report struct {
	Package    string      `json:"package,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// parse consumes `go test -bench` output. Lines look like:
//
//	BenchmarkEngineTCoP-8   228   5171434 ns/op   2138152 B/op   21523 allocs/op
//
// Values in other units (MB/s, b.ReportMetric) are kept under Metrics.
func parse(lines []string) Report {
	var rep Report
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, "pkg:"):
			pkg := strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			if rep.Package != "" {
				pkg = rep.Package + "," + pkg // one run over several packages
			}
			rep.Package = pkg
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || f[3] != "ns/op" {
			continue
		}
		b := Benchmark{Name: f[0]}
		b.Iterations, _ = strconv.ParseInt(f[1], 10, 64)
		b.NsPerOp, _ = strconv.ParseFloat(f[2], 64)
		for i := 4; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "B/op":
				b.BytesPerOp = int64(v)
			case "allocs/op":
				b.AllocsPerOp = int64(v)
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[f[i+1]] = v
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	return rep
}

// allocCap is one parsed -assert-max-allocs entry.
type allocCap struct {
	prefix string
	max    int64
}

// parseMaxAllocs parses "PREFIX=N[,PREFIX=N...]" (empty input → none).
func parseMaxAllocs(s string) ([]allocCap, error) {
	if s == "" {
		return nil, nil
	}
	var caps []allocCap
	for _, part := range strings.Split(s, ",") {
		prefix, limit, ok := strings.Cut(part, "=")
		if !ok || prefix == "" {
			return nil, fmt.Errorf("bad -assert-max-allocs entry %q (want PREFIX=N)", part)
		}
		max, err := strconv.ParseInt(limit, 10, 64)
		if err != nil || max < 0 {
			return nil, fmt.Errorf("bad -assert-max-allocs limit in %q (want a non-negative integer)", part)
		}
		caps = append(caps, allocCap{prefix: prefix, max: max})
	}
	return caps, nil
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	zeroAllocs := flag.String("assert-zero-allocs", "",
		"fail if any benchmark with this name prefix reports allocs/op > 0")
	maxAllocs := flag.String("assert-max-allocs", "",
		"PREFIX=N[,PREFIX=N...]: fail if any benchmark with a listed name prefix reports allocs/op > N")
	flag.Parse()

	caps, err := parseMaxAllocs(*maxAllocs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	var lines []string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		lines = append(lines, line)
		fmt.Fprintln(os.Stderr, line) // echo so CI logs keep the raw output
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}

	rep := parse(lines)
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found")
		os.Exit(1)
	}
	if *zeroAllocs != "" {
		matched, failed := 0, 0
		for _, b := range rep.Benchmarks {
			if !strings.HasPrefix(b.Name, *zeroAllocs) {
				continue
			}
			matched++
			if b.AllocsPerOp > 0 {
				failed++
				fmt.Fprintf(os.Stderr, "benchjson: %s allocates: %d allocs/op (want 0)\n",
					b.Name, b.AllocsPerOp)
			}
		}
		if matched == 0 {
			fmt.Fprintf(os.Stderr, "benchjson: no benchmark matches -assert-zero-allocs %q\n", *zeroAllocs)
			os.Exit(1)
		}
		if failed > 0 {
			os.Exit(1)
		}
	}
	// Each benchmark answers to the most specific cap naming it, so
	// "BenchmarkDiv=1,BenchmarkDivide=17" holds Div to 1 and Divide to 17.
	matched := make([]int, len(caps))
	failed := false
	for _, b := range rep.Benchmarks {
		best := -1
		for i, cap := range caps {
			if strings.HasPrefix(b.Name, cap.prefix) && (best < 0 || len(cap.prefix) > len(caps[best].prefix)) {
				best = i
			}
		}
		if best < 0 {
			continue
		}
		matched[best]++
		if b.AllocsPerOp > caps[best].max {
			failed = true
			fmt.Fprintf(os.Stderr, "benchjson: %s allocates: %d allocs/op (max %d)\n",
				b.Name, b.AllocsPerOp, caps[best].max)
		}
	}
	for i, cap := range caps {
		if matched[i] == 0 {
			fmt.Fprintf(os.Stderr, "benchjson: no benchmark matches -assert-max-allocs prefix %q\n", cap.prefix)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: marshal: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: write %s: %v\n", *out, err)
		os.Exit(1)
	}
}
