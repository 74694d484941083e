package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// summary is one metric over the runs of a workload.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // interquartile distance ÷ median; 0 with one run
	Values []float64 `json:"values"`
}

// workloadReport is everything the suite measured on one workload.
type workloadReport struct {
	Name      string             `json:"name"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]summary `json:"per_layer"`
}

// report is the stored result set (-out, baseline.json, -compare).
type report struct {
	Host       hostInfo         `json:"host"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Scale      float64          `json:"scale"`
	Repeat     int              `json:"repeat"`
	Comparable bool             `json:"comparable"` // false at scale != 1
	Workloads  []workloadReport `json:"workloads"`
}

// child runs one workload in a fresh process of this same binary and
// parses the JSON line it prints last.
func child(o runOptions) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"-trace", trace, "-trace-out", o.traceOut)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("%s: %w", o.workload, runErr)
		}
		return result{}, fmt.Errorf("%s: no result line: %w", o.workload, err)
	}
	return res, nil // a run with failures still reports; the caller counts them
}

func summarize(runs []result) map[string]summary {
	out := map[string]summary{}
	for name, v := range runs[0].Metrics {
		s := summary{Unit: v.Unit}
		for _, r := range runs {
			s.Values = append(s.Values, r.Metrics[name].Value)
		}
		s.Median, s.Spread = median(s.Values), relSpread(s.Values)
		out[name] = s
	}
	return out
}

// suite runs every workload — repeat untraced runs on consecutive seeds,
// then one traced run — prints the set, stores it, and optionally
// compares it with an earlier one. It returns the process exit code.
func suite(o runOptions, repeat int, out, compare string) int {
	rep := report{Host: readHostInfo(), Seed: o.seed, Seconds: o.seconds, Scale: o.scale, Repeat: repeat, Comparable: o.scale == 1}
	rep.Host.CalibNS = calibrate(o.scale)
	bad := false
	for _, name := range workloadOrder {
		o.workload = name
		wr := workloadReport{Name: name}
		var runs []result
		for i := 0; i < repeat; i++ {
			ro := o
			ro.seed, ro.trace, ro.traceOut = o.seed+int64(i), false, ""
			res, err := child(ro)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mssbench:", err)
				return 1
			}
			runs = append(runs, res)
			wr.Attempted, wr.Failed = wr.Attempted+res.Attempted, wr.Failed+res.Failed
		}
		wr.EndToEnd = summarize(runs)
		to := o
		to.trace = true
		if to.traceOut == "" {
			to.traceOut = defaultPath("trace-" + name + ".jsonl")
		}
		traced, err := child(to)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mssbench:", err)
			return 1
		}
		wr.Attempted, wr.Failed = wr.Attempted+traced.Attempted, wr.Failed+traced.Failed
		wr.PerLayer = summarize([]result{traced})
		rep.Workloads = append(rep.Workloads, wr)
		bad = printWorkload(wr, repeat) || bad
	}
	if !rep.Comparable {
		fmt.Printf("\nscale=%g: these numbers are NOT comparable with a full-size run\n", o.scale)
	}
	if out == "" {
		out = defaultPath("result.json")
	}
	if out != "" {
		if err := writeReport(out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "mssbench:", err)
			return 1
		}
		fmt.Println("\nresult set written to", out)
	}
	if compare != "" {
		worse, err := compareWith(compare, rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mssbench:", err)
			return 1
		}
		bad = bad || worse
	}
	if bad {
		return 1
	}
	return 0
}

// printWorkload prints one workload's metrics by name and reports
// whether it failed an output check or (with repeats) a spread bound.
func printWorkload(wr workloadReport, repeat int) (bad bool) {
	fmt.Printf("\n== %s  (%d operations, %d failed; failed_share %.4f)\n", wr.Name, wr.Attempted, wr.Failed,
		float64(wr.Failed)/float64(max(1, wr.Attempted)))
	bad = wr.Failed > 0
	fmt.Printf("  %-36s %16s %-8s %8s  (untraced, %d run(s))\n", "end-to-end", "median", "unit", "spread", repeat)
	for _, d := range endToEnd {
		s := wr.EndToEnd[d.Name]
		flag := ""
		if repeat > 1 && s.Spread > d.Bound {
			flag, bad = fmt.Sprintf("  SPREAD > bound %.2f", d.Bound), true
		}
		fmt.Printf("  %-36s %16.4f %-8s %8.4f%s\n", d.Name, s.Median, s.Unit, s.Spread, flag)
	}
	fmt.Printf("  %-36s %16s %-8s  (traced)\n", "per-layer", "value", "unit")
	for _, d := range perLayer {
		s := wr.PerLayer[d.Name]
		fmt.Printf("  %-36s %16.4f %-8s\n", d.Name, s.Median, s.Unit)
	}
	return bad
}

func writeReport(path string, rep report) error {
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compareWith prints old/new/ratio for every end-to-end metric of every
// workload and flags the ones that got worse by more than their bound.
func compareWith(path string, cur report) (worse bool, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	var old report
	if err := json.Unmarshal(b, &old); err != nil {
		return false, fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("\ncompare with %s\n", path)
	for _, side := range []struct {
		tag string
		r   report
	}{{"old", old}, {"new", cur}} {
		h := side.r.Host
		fmt.Printf("  %s host: %q nproc=%d GOMAXPROCS=%d %s host.calib_ns=%.0f seed=%d seconds=%g comparable=%v\n",
			side.tag, h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion, h.CalibNS, side.r.Seed, side.r.Seconds, side.r.Comparable)
	}
	oldBy := map[string]workloadReport{}
	for _, w := range old.Workloads {
		oldBy[w.Name] = w
	}
	fmt.Printf("  %-16s %-20s %14s %14s %8s\n", "workload", "metric", "old", "new", "new/old")
	for _, w := range cur.Workloads {
		ow, ok := oldBy[w.Name]
		if !ok {
			continue
		}
		for _, d := range endToEnd {
			o, n := ow.EndToEnd[d.Name].Median, w.EndToEnd[d.Name].Median
			if o == 0 {
				continue
			}
			ratio := n / o
			flag := ""
			if (d.Better == "lower" && ratio > 1+d.Bound) || (d.Better == "higher" && ratio < 1-d.Bound) {
				flag, worse = fmt.Sprintf("  WORSE beyond bound %.2f", d.Bound), true
			}
			fmt.Printf("  %-16s %-20s %14.4f %14.4f %8.3f%s\n", w.Name, d.Name, o, n, ratio, flag)
		}
	}
	return worse, nil
}
