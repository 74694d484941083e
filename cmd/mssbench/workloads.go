package main

import (
	"fmt"
	"runtime"
	"time"
)

// workload is one set of inputs the benchmark runs. setUp builds the
// inputs from the seed, starts whatever the program needs and warms it
// up; measure drives the program for about d and checks its outputs;
// layers turns the traced window's spans, plus direct probes on the
// workload's own inputs, into per-layer numbers.
type workload interface {
	setUp(seed int64, scale float64, rec *recorder) error
	measure(d time.Duration) (window, error)
	layers(w window, spans []span) map[string]float64
	tearDown()
}

// window is what one timed phase produced.
type window struct {
	begin, end usage     // process counters at the window's edges
	units      float64   // work completed inside the window (see README)
	opMS       []float64 // latency of every operation started in it
	attempted  int
	failed     int
	errs       []string // first few failure messages, for the report
	lateMS     []float64
}

func (w *window) fail(format string, args ...any) {
	w.failed++
	if len(w.errs) < 5 {
		w.errs = append(w.errs, fmt.Sprintf(format, args...))
	}
}

func (w window) wall() float64 { return w.end.at.Sub(w.begin.at).Seconds() }

func (w window) cpuPerUnitUS() float64 {
	if w.units == 0 {
		return 0
	}
	return (w.end.cpu - w.begin.cpu) * 1e6 / w.units
}

// endToEndOf derives the gated metrics from an untraced window.
func endToEndOf(w window, setupS float64) map[string]float64 {
	m := map[string]float64{
		"setup_s":         setupS,
		"op_p50_ms":       quantile(sortedCopy(w.opMS), 0.50),
		"cpu_us_per_unit": w.cpuPerUnitUS(),
	}
	if wall := w.wall(); wall > 0 {
		m["work_per_s"] = w.units / wall
	}
	if w.units > 0 {
		m["allocs_per_unit"] = float64(w.end.mallocs-w.begin.mallocs) / w.units
		m["alloc_kb_per_unit"] = float64(w.end.bytes-w.begin.bytes) / 1024 / w.units
	}
	return m
}

var workloadOrder = []string{"sim_coord", "sim_packet", "live_sessions", "live_bulk", "live_udp_lossy"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "sim_coord":
		return &simWorkload{spec: simCoord}, nil
	case "sim_packet":
		return &simWorkload{spec: simPacket}, nil
	case "live_sessions", "live_bulk", "live_udp_lossy":
		return &liveWorkload{spec: liveSpecs[name]}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadOrder)
}

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median, so one slow start does not decide it.
const setupRepeats = 3

// runOptions are the knobs of one single-workload run.
type runOptions struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	scale    float64
}

// runOne executes one workload in this process and returns its result
// plus the human-readable notes printed above the JSON line.
func runOne(o runOptions) (result, []string, error) {
	if n := runtime.NumCPU(); n > 4 {
		runtime.GOMAXPROCS(4)
	}
	wl, err := newWorkload(o.workload)
	if err != nil {
		return result{}, nil, err
	}
	var rec *recorder
	if o.trace {
		rec = newRecorder(32)
	}
	calibNS := calibrate(o.scale)
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			wl.tearDown()
		}
		start := time.Now()
		if err := wl.setUp(o.seed, o.scale, rec); err != nil {
			wl.tearDown()
			return result{}, nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer wl.tearDown()
	setupS := median(setups)

	total := time.Duration(o.seconds * float64(time.Second))
	var notes []string
	var w window
	got := map[string]float64{}
	if !o.trace {
		if w, err = wl.measure(total); err != nil {
			return result{}, nil, err
		}
		got = endToEndOf(w, setupS)
	} else {
		// A short untraced slice first, on the same warmed-up state, is
		// the reference the traced slice's cost per unit is compared to.
		ref, err := wl.measure(total / 4)
		if err != nil {
			return result{}, nil, err
		}
		rec.on.Store(true)
		w, err = wl.measure(total - total/4)
		rec.on.Store(false)
		if err != nil {
			return result{}, nil, err
		}
		spans := rec.all()
		got = wl.layers(w, spans)
		if base := ref.cpuPerUnitUS(); base > 0 {
			got["trace.overhead_share"] = (w.cpuPerUnitUS() - base) / base
		}
		got["gen.late_p95_ms"] = quantile(sortedCopy(w.lateMS), 0.95)
		got["host.calib_ns"] = calibNS
		got["host.peak_rss_mb"] = peakRSSMB()
		w.attempted += ref.attempted
		w.failed += ref.failed
		w.errs = append(ref.errs, w.errs...)
		if o.traceOut != "" {
			if err := writeSpans(o.traceOut, spans); err != nil {
				return result{}, nil, fmt.Errorf("write spans: %w", err)
			}
			notes = append(notes, fmt.Sprintf("%d spans written to %s", len(spans), o.traceOut))
		}
	}
	for _, e := range w.errs {
		notes = append(notes, "FAILED: "+e)
	}
	lat := sortedCopy(w.opMS)
	hp := highestPercentile(len(lat))
	notes = append(notes, fmt.Sprintf("ops=%d failed=%d units=%.0f wall=%.2fs  op latency p50=%.3fms p%g=%.3fms (n=%d)",
		w.attempted, w.failed, w.units, w.wall(), quantile(lat, 0.5), hp*100, quantile(lat, hp), len(lat)))

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{Correct: w.failed == 0 && w.attempted > 0, Attempted: w.attempted, Failed: w.failed, Metrics: fill(defs, got)}
	return res, notes, nil
}
