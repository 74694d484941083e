// Command mssbench is the repository's benchmark: five named workloads,
// end-to-end metrics from an untraced run, per-layer metrics from a
// traced one, every output checked. See README.md.
//
// With -workload it runs that one workload in this process and prints a
// single JSON result as its last line (the form BENCHMARK.json's driver
// calls). Without, it runs every workload, each in a fresh child
// process, untraced then traced, and prints and stores the whole set.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var o runOptions
	var trace int
	var repeat int
	var out, compare string
	flag.StringVar(&o.workload, "workload", "", "run only this workload, in this process (one of "+fmt.Sprint(workloadOrder)+")")
	flag.Int64Var(&o.seed, "seed", 1, "seed for everything the generator chooses")
	flag.Float64Var(&o.seconds, "seconds", 12, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "with -workload: 1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.traceOut, "trace-out", "", "where a traced run writes its spans as JSON Lines (default .bench_build/mssbench/trace-<workload>.jsonl)")
	flag.Float64Var(&o.scale, "scale", 1, "shrink the workloads' sizes, for tests; results at scale != 1 are not comparable")
	flag.IntVar(&repeat, "repeat", 1, "without -workload: untraced runs per workload (seed, seed+1, ...); reports median and spread")
	flag.StringVar(&out, "out", "", "without -workload: where to write the result set (default .bench_build/mssbench/result.json)")
	flag.StringVar(&compare, "compare", "", "without -workload: print old/new/ratio against this earlier result set")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 || o.scale <= 0 || repeat < 1 {
		fmt.Fprintln(os.Stderr, "mssbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	o.trace = trace != 0

	if o.workload != "" {
		if o.trace && o.traceOut == "" {
			o.traceOut = defaultPath("trace-" + o.workload + ".jsonl")
		}
		os.Exit(single(o))
	}
	os.Exit(suite(o, repeat, out, compare))
}

// single runs one workload here and prints its metrics, then the JSON
// line the driver reads.
func single(o runOptions) int {
	res, notes, err := runOne(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mssbench:", err)
		return 1
	}
	mode := "end-to-end (untraced)"
	if o.trace {
		mode = "per-layer (traced)"
	}
	fmt.Printf("%s  seed=%d  seconds=%g  scale=%g  %s\n", o.workload, o.seed, o.seconds, o.scale, mode)
	for _, n := range notes {
		fmt.Println("  " + n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %16.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mssbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// repoRoot is the nearest directory at or above the working directory
// that holds BENCHMARK.json ("" if none): outputs go under it so they
// land in one ignored place however the command was started.
func repoRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return ""
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}

func defaultPath(file string) string {
	root := repoRoot()
	if root == "" {
		return ""
	}
	return filepath.Join(root, ".bench_build", "mssbench", file)
}
