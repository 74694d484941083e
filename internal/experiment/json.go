package experiment

import (
	"encoding/json"
	"fmt"
	"io"

	"p2pmss/internal/coord"
	"p2pmss/internal/metrics"
	"p2pmss/internal/span"
)

// RunRecord is one (protocol, H, seed) grid point in machine-readable
// form: the full simulation result plus, when Options.Instrument is set,
// the run's metrics snapshot. One RunRecord is one JSON line. Spans
// (Options.CollectSpans) are carried separately from the JSON encoding —
// they go to the trace file, not the record stream.
type RunRecord struct {
	Protocol string            `json:"protocol"`
	H        int               `json:"h"`
	Seed     int64             `json:"seed"`
	Scenario *Scenario         `json:"scenario,omitempty"`
	Result   coord.Result      `json:"result"`
	Metrics  *metrics.Snapshot `json:"metrics,omitempty"`
	Spans    []span.Span       `json:"-"`
}

// Scenario stamps a run's impairment and churn configuration into its
// record, so a JSONL archive is self-describing: a record produced
// under 5% loss or a churn schedule says so without needing the command
// line that produced it. Nil (omitted) for unimpaired runs, keeping
// their byte output identical to before scenarios existed.
type Scenario struct {
	// LossProb is the independent per-message drop probability.
	LossProb float64 `json:"loss_prob,omitempty"`
	// Burst echoes the Gilbert–Elliott parameters when bursty loss was on.
	Burst *coord.BurstParams `json:"burst,omitempty"`
	// ChurnEvents is how many crash/join events the churn schedule held.
	ChurnEvents int `json:"churn_events,omitempty"`
	// Retries and HandshakeTimeout echo the churn-tolerance tuning.
	Retries          int     `json:"retries,omitempty"`
	HandshakeTimeout float64 `json:"handshake_timeout,omitempty"`
	// PlaneMode names the data-plane strategy when it deviates from the
	// per-packet default ("fluid").
	PlaneMode string `json:"plane_mode,omitempty"`
}

// scenarioFor derives a run's scenario stamp from its resolved config,
// or nil when nothing deviates from the reliable-network default.
func scenarioFor(cfg coord.Config) *Scenario {
	s := Scenario{
		LossProb:         cfg.LossProb,
		Burst:            cfg.Burst,
		Retries:          cfg.Retries,
		HandshakeTimeout: cfg.HandshakeTimeout,
	}
	if cfg.Churn != nil {
		s.ChurnEvents = len(cfg.Churn.Events)
	}
	if cfg.PlaneMode == coord.PlaneFluid {
		s.PlaneMode = string(cfg.PlaneMode)
	}
	if s == (Scenario{}) {
		return nil
	}
	return &s
}

// runRecords executes the jobs (optionally with a fresh per-run registry
// and span collector each) and pairs every result with its grid
// coordinates. Registries and collectors are read only after runGrid
// returns — its pool join is the happens-before edge making the per-run
// state safe to read — and both snapshots are sorted, so the byte output
// is deterministic at any worker count.
func runRecords(jobs []runJob, workers int, instrument, collectSpans bool) ([]RunRecord, error) {
	regs := make([]*metrics.Registry, len(jobs))
	if instrument {
		for i := range jobs {
			regs[i] = metrics.New()
			jobs[i].cfg.Obs.Metrics = regs[i]
		}
	}
	cols := make([]*span.Collector, len(jobs))
	if collectSpans {
		for i := range jobs {
			cols[i] = span.NewCollector()
			jobs[i].cfg.Obs.Spans = cols[i]
			// One trace per grid point: the default seed-derived trace
			// would collide across H values sharing a seed.
			jobs[i].cfg.Obs.SpanTrace = span.DeriveTrace(fmt.Sprintf("%s/H=%d/seed=%d",
				jobs[i].protocol, jobs[i].cfg.H, jobs[i].cfg.Seed))
		}
	}
	results, err := runGrid(jobs, workers)
	if err != nil {
		return nil, err
	}
	recs := make([]RunRecord, len(jobs))
	for i, j := range jobs {
		recs[i] = RunRecord{
			Protocol: j.protocol,
			H:        j.cfg.H,
			Seed:     j.cfg.Seed,
			Scenario: scenarioFor(j.cfg),
			Result:   results[i],
		}
		if regs[i] != nil {
			s := regs[i].Snapshot()
			recs[i].Metrics = &s
		}
		if cols[i] != nil {
			recs[i].Spans = cols[i].Spans()
		}
	}
	return recs, nil
}

// Spans concatenates the records' span sets in record (grid) order —
// deterministic because each run's collector is merged after the pool
// join and sorted per run.
func Spans(recs []RunRecord) []span.Span {
	var out []span.Span
	for _, r := range recs {
		out = append(out, r.Spans...)
	}
	return out
}

// SweepRecords runs every listed protocol's (H, seed) grid on one worker
// pool and returns the per-run records in protocol, H, seed order.
func SweepRecords(o Options, dataPlane bool, protocols ...string) ([]RunRecord, error) {
	o.normalize()
	if err := o.checkHs(); err != nil {
		return nil, err
	}
	var jobs []runJob
	for _, proto := range protocols {
		jobs = append(jobs, sweepJobs(proto, o, dataPlane)...)
	}
	return runRecords(jobs, o.Parallel, o.Instrument, o.CollectSpans)
}

// BaselineRecords runs every protocol at fixed H with the data plane on
// and returns the per-run records, in protocol-then-seed order.
func BaselineRecords(o Options, H int) ([]RunRecord, error) {
	o.normalize()
	if H < 1 || H > o.N {
		return nil, fmt.Errorf("experiment: baseline H=%d out of range 1..N=%d", H, o.N)
	}
	o.Hs = []int{H}
	return SweepRecords(o, true, coord.Protocols...)
}

// WriteRecordsJSONL writes the records to w as JSON Lines, one compact
// object per run.
func WriteRecordsJSONL(w io.Writer, recs []RunRecord) error {
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}
