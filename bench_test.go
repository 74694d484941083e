package p2pmss

import (
	"fmt"
	"runtime"
	"testing"
)

// The benchmarks below are the regeneration harness for the paper's
// evaluation: one benchmark per figure/table. Each iteration performs a
// full (seed-reduced) sweep; the key measured values are attached as
// benchmark metrics so `go test -bench` output doubles as the
// reproduction record (see EXPERIMENTS.md). For the paper-scale sweep
// with seed averaging, run cmd/mssim.

// benchOptions returns a single-seed sweep sized for benchmarking. The
// figure benchmarks run on the worker pool; the sweep output is
// byte-identical to serial (asserted in internal/experiment), so the
// reproduction record is unaffected.
func benchOptions() ExperimentOptions {
	o := DefaultExperimentOptions()
	o.Seeds = 1
	o.Hs = []int{2, 10, 20, 40, 60, 80, 100}
	o.Parallel = runtime.NumCPU()
	return o
}

func findH(s Series, H int) (rounds, packets, rate float64) {
	for _, p := range s.Points {
		if p.H == H {
			return p.Rounds, p.ControlPackets, p.ReceiptRate
		}
	}
	return 0, 0, 0
}

// BenchmarkFigure10 regenerates "Rounds and number of control packets in
// DCoP" (paper: 2 rounds, ≈600 packets at H=60).
func BenchmarkFigure10(b *testing.B) {
	var s Series
	var err error
	for i := 0; i < b.N; i++ {
		s, err = Figure10(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	rounds, packets, _ := findH(s, 60)
	b.ReportMetric(rounds, "rounds@H=60")
	b.ReportMetric(packets, "ctlpkts@H=60")
}

// BenchmarkFigure11 regenerates "Rounds and number of control packets in
// TCoP" (paper: 6 rounds, ≈7400 packets at H=60).
func BenchmarkFigure11(b *testing.B) {
	var s Series
	var err error
	for i := 0; i < b.N; i++ {
		s, err = Figure11(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	rounds, packets, _ := findH(s, 60)
	b.ReportMetric(rounds, "rounds@H=60")
	b.ReportMetric(packets, "ctlpkts@H=60")
}

// BenchmarkFigure12 regenerates "Receipt rate of leaf peer" (paper:
// DCoP 1.019, TCoP 1.226 at H=60).
func BenchmarkFigure12(b *testing.B) {
	o := benchOptions()
	o.Hs = []int{20, 60, 100} // data-plane points are costly
	var d, t Series
	var err error
	for i := 0; i < b.N; i++ {
		d, t, err = Figure12(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	_, _, dr := findH(d, 60)
	_, _, tr := findH(t, 60)
	b.ReportMetric(dr, "dcop-rate@H=60")
	b.ReportMetric(tr, "tcop-rate@H=60")
}

// BenchmarkBaselines regenerates the §3.1 baseline comparison at H=10.
func BenchmarkBaselines(b *testing.B) {
	o := benchOptions()
	var rows []BaselineRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = Baselines(o, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.ControlPackets, "ctlpkts-"+r.Protocol)
	}
}

// BenchmarkFaultTolerance measures §3.2's reliability claim: delivery
// fraction with two crashed peers and 3% loss under DCoP with h=2
// parity.
func BenchmarkFaultTolerance(b *testing.B) {
	var delivered float64
	for i := 0; i < b.N; i++ {
		cfg := DefaultSimConfig()
		cfg.N = 16
		cfg.H = 6
		cfg.Interval = 2
		cfg.DataPlane = true
		cfg.Loop = false
		cfg.ContentLen = 600
		cfg.Rate = 10
		cfg.LossProb = 0.03
		cfg.Churn = &ChurnSchedule{Events: []ChurnEvent{{At: 20, Peer: 0}, {At: 20, Peer: 5}}}
		cfg.Seed = int64(i + 1)
		res, err := Simulate(DCoP, cfg)
		if err != nil {
			b.Fatal(err)
		}
		delivered = float64(res.DeliveredData) / float64(cfg.ContentLen)
	}
	b.ReportMetric(delivered*100, "delivered-%")
}

// BenchmarkSweepSerial and BenchmarkSweepParallel run the same
// multi-seed data-plane sweep serially and on the NumCPU-bounded worker
// pool. The results are identical by construction; the ratio of the two
// wall-clock times is the experiment harness speedup.
func BenchmarkSweepSerial(b *testing.B)   { benchSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, runtime.NumCPU()) }

func benchSweep(b *testing.B, workers int) {
	o := DefaultExperimentOptions()
	o.N = 60
	o.Hs = []int{10, 20, 30, 60}
	o.Seeds = 4
	o.ContentLen = 10000
	o.Window = 100
	o.Parallel = workers
	for i := 0; i < b.N; i++ {
		if _, _, err := Figure12(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDCoPSync and BenchmarkTCoPSync measure raw coordination speed
// (control plane only) at the paper's n=100, H=60 point.
func BenchmarkDCoPSync(b *testing.B) {
	benchSync(b, DCoP)
}

func BenchmarkTCoPSync(b *testing.B) {
	benchSync(b, TCoP)
}

func benchSync(b *testing.B, proto string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := DefaultSimConfig()
		cfg.N = 100
		cfg.H = 60
		cfg.Seed = int64(i + 1)
		if _, err := Simulate(proto, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalability sweeps n upward at fixed H to show the flooding
// protocols' cost growth (the scalability the title claims).
func BenchmarkScalability(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var packets float64
			for i := 0; i < b.N; i++ {
				cfg := DefaultSimConfig()
				cfg.N = n
				cfg.H = 20
				cfg.Seed = int64(i + 1)
				res, err := Simulate(DCoP, cfg)
				if err != nil {
					b.Fatal(err)
				}
				packets = float64(res.ControlPackets)
			}
			b.ReportMetric(packets, "ctlpkts")
		})
	}
}
