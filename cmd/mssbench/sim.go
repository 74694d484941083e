package main

import (
	"fmt"
	"strings"
	"time"

	"p2pmss"
)

// paperHs is the paper's H sweep (Figures 10 and 11).
var paperHs = []int{2, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}

// simJob is one Simulate call of a cycle.
type simJob struct {
	class string // span-name suffix, e.g. "dcop_n100"
	proto string
	cfg   p2pmss.SimConfig
}

// simSpec describes a simulator workload: the reference jobs set-up runs
// (they double as warm-up and give the exact counts), the jobs of one
// cycle, and what one result contributes to the unit count.
type simSpec struct {
	name  string
	refs  func(base int64, scale float64) []simJob
	cycle func(base int64, cycle int, scale float64) []simJob
	units func(j simJob, r p2pmss.SimResult) float64
	// layers adds this workload's own per-layer numbers: what the traced
	// Simulate spans (busyUS in all) cost per counted packet, the exact
	// counts of the reference runs, and the direct probes.
	layers func(s *simWorkload, busyUS float64, out map[string]float64)
}

func controlJob(proto string, n, h int, seed int64) simJob {
	cfg := p2pmss.DefaultSimConfig()
	cfg.N, cfg.H, cfg.Seed = n, h, seed
	return simJob{class: fmt.Sprintf("%s_n%d", proto, n), proto: proto, cfg: cfg}
}

func fluidJob(proto string, n int, seed int64) simJob {
	cfg := p2pmss.DefaultSimConfig()
	cfg.N, cfg.H, cfg.Seed = n, 10, seed
	cfg.DataPlane, cfg.PlaneMode = true, p2pmss.PlaneFluid
	return simJob{class: proto + "_n10k", proto: proto, cfg: cfg}
}

// fig12Job is the Figure-12 configuration: n=100, packet data plane.
func fig12Job(proto string, h int, seed int64, scale float64) simJob {
	cfg := p2pmss.DefaultSimConfig()
	cfg.H, cfg.Seed = h, seed
	cfg.DataPlane, cfg.Rate = true, 2
	cfg.ContentLen = int64(max(300, 30000*scale))
	cfg.Window = max(10, 200*scale)
	return simJob{class: proto + "_fig12", proto: proto, cfg: cfg}
}

var simProtos = []string{p2pmss.DCoP, p2pmss.TCoP}

// sweepSeeds is how many seeds of the n=100 H sweep one cycle holds
// beside its two n=10,000 runs.
const sweepSeeds = 6

var simCoord = simSpec{
	name: "sim_coord",
	refs: func(base int64, scale float64) []simJob {
		big := max(200, int(10000*scale))
		return []simJob{
			controlJob(p2pmss.DCoP, 100, 10, base), controlJob(p2pmss.TCoP, 100, 10, base),
			fluidJob(p2pmss.DCoP, big, base), fluidJob(p2pmss.TCoP, big, base),
		}
	},
	cycle: func(base int64, cycle int, scale float64) []simJob {
		var jobs []simJob
		seeds := max(1, int(sweepSeeds*scale))
		for s := 0; s < seeds; s++ {
			seed := base + int64(cycle*seeds+s) + 1
			for _, h := range paperHs {
				for _, proto := range simProtos {
					jobs = append(jobs, controlJob(proto, 100, h, seed))
				}
			}
		}
		big := max(200, int(10000*scale))
		for _, proto := range simProtos {
			jobs = append(jobs, fluidJob(proto, big, base+int64(cycle)+1))
		}
		return jobs
	},
	units: func(j simJob, _ p2pmss.SimResult) float64 { return float64(j.cfg.N) },
	layers: func(s *simWorkload, busyUS float64, out map[string]float64) {
		if s.ctlPkts > 0 {
			out["coord.us_per_ctl_pkt"] = busyUS / s.ctlPkts
		}
		for _, proto := range simProtos {
			r := s.ref[proto+"_n100"]
			out["coord.rounds."+proto] = float64(r.Rounds)
			out["coord.ctl_pkts."+proto] = float64(r.ControlPackets)
		}
		probeEngine(probe{s.scale}, s.base, out)
	},
}

// fig12Hs leaves out H=2: DCoP there floods a 22-fold receipt rate and
// one such run (2.7 s) outweighs the other nine of the cycle together.
var fig12Hs = []int{5, 10, 30, 60, 100}

var simPacket = simSpec{
	name: "sim_packet",
	refs: func(base int64, scale float64) []simJob {
		return []simJob{fig12Job(p2pmss.DCoP, 10, base, scale), fig12Job(p2pmss.TCoP, 10, base, scale)}
	},
	cycle: func(base int64, cycle int, scale float64) []simJob {
		var jobs []simJob
		for _, h := range fig12Hs {
			for _, proto := range simProtos {
				jobs = append(jobs, fig12Job(proto, h, base+int64(cycle)+1, scale))
			}
		}
		return jobs
	},
	units: func(_ simJob, r p2pmss.SimResult) float64 { return leafArrivals(r) },
	layers: func(s *simWorkload, busyUS float64, out map[string]float64) {
		if s.leafPkts > 0 {
			out["coord.us_per_leaf_pkt"] = busyUS / s.leafPkts
		}
		for _, proto := range simProtos {
			out["coord.receipt_rate."+proto] = s.ref[proto+"_fig12"].ReceiptRate
		}
		probeFig12(probe{s.scale}, s.base, out)
	},
}

// leafArrivals is what the simulated leaf received inside the
// measurement window: data, parity and duplicates.
func leafArrivals(r p2pmss.SimResult) float64 {
	return float64(r.DataPackets + r.ParityPackets + r.DupPackets)
}

// simWorkload drives p2pmss.Simulate serially from one goroutine.
type simWorkload struct {
	spec  simSpec
	rec   *recorder
	base  int64
	scale float64
	ref   map[string]p2pmss.SimResult // reference result per job class
	cycle int
	jobs  int
	// ctlPkts and leafPkts are summed over the traced window's jobs.
	ctlPkts, leafPkts float64
}

// sameOutcome is the correctness gate: a simulated run is a pure
// function of its config, so a second evaluation must agree exactly.
func sameOutcome(a, b p2pmss.SimResult) bool {
	return a.Rounds == b.Rounds && a.ControlPackets == b.ControlPackets && a.ReceiptRate == b.ReceiptRate
}

func (s *simWorkload) setUp(seed int64, scale float64, rec *recorder) error {
	s.rec, s.scale = rec, scale
	s.base = seed * 1_000_003
	s.ref = make(map[string]p2pmss.SimResult)
	for _, j := range s.spec.refs(s.base, scale) {
		r, err := p2pmss.Simulate(j.proto, j.cfg)
		if err != nil {
			return fmt.Errorf("%s H=%d: %w", j.class, j.cfg.H, err)
		}
		s.ref[j.class] = r
	}
	return nil
}

func (s *simWorkload) tearDown() {}

// simulate runs one job, inside a span when tracing.
func (s *simWorkload) simulate(j simJob) (p2pmss.SimResult, error) {
	var id uint64
	var t0 int64
	traced := s.rec.enabled()
	if traced {
		id, t0 = s.rec.newID(), s.rec.now()
	}
	r, err := p2pmss.Simulate(j.proto, j.cfg)
	if traced {
		s.rec.add(span{ID: id, Name: spanSimulate + "." + j.class, Op: int32(s.jobs), Node: -1, Peer: -1, Start: t0, End: s.rec.now()})
		s.ctlPkts += float64(r.ControlPackets)
		s.leafPkts += leafArrivals(r)
	}
	s.jobs++
	return r, err
}

// measure runs whole cycles until d has passed, so every window holds
// the same mix of jobs however fast the host is. Each job is evaluated
// twice; the second evaluation must repeat the first. The op whose
// latency is reported is the cycle — the sweep a user of the simulator
// runs — because the calls inside one fall into a few classes of very
// different length and a percentile over them lands between two.
func (s *simWorkload) measure(d time.Duration) (window, error) {
	var w window
	w.begin = readUsage()
	for time.Since(w.begin.at) < d {
		cycleStart := time.Now()
		for _, j := range s.spec.cycle(s.base, s.cycle, s.scale) {
			var first p2pmss.SimResult
			for eval := 0; eval < 2; eval++ {
				r, err := s.simulate(j)
				w.attempted++
				switch {
				case err != nil:
					w.fail("%s H=%d seed=%d: %v", j.class, j.cfg.H, j.cfg.Seed, err)
				case eval == 1 && !sameOutcome(first, r):
					w.fail("%s H=%d seed=%d: re-evaluation differs: %d/%d/%v then %d/%d/%v", j.class, j.cfg.H, j.cfg.Seed,
						first.Rounds, first.ControlPackets, first.ReceiptRate, r.Rounds, r.ControlPackets, r.ReceiptRate)
				default:
					w.units += s.spec.units(j, r)
				}
				first = r
			}
		}
		s.cycle++
		w.opMS = append(w.opMS, float64(time.Since(cycleStart))/1e6)
	}
	w.end = readUsage()
	return w, nil
}

func (s *simWorkload) layers(w window, spans []span) map[string]float64 {
	out := map[string]float64{}
	byClass := map[string][]float64{}
	var busyUS float64
	for _, sp := range spans {
		if class, ok := strings.CutPrefix(sp.Name, spanSimulate+"."); ok {
			byClass[class] = append(byClass[class], float64(sp.dur())/1e6)
			busyUS += float64(sp.dur()) / 1e3
		}
	}
	for class, ms := range byClass {
		out["coord.run_ms."+class] = mean(ms)
	}
	s.spec.layers(s, busyUS, out)
	return out
}
