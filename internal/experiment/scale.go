package experiment

import (
	"fmt"
	"io"
	"strings"
)

// The scale sweep extends the paper's evaluation past its n = 100
// setting: the same Figure-10/12 quantities (rounds, control packets,
// sync time, leaf receipt rate) measured while n grows to 10⁵ peers at
// a fixed fanout. The per-packet data plane is quadratic-ish in wall
// time at that size (rate × virtual time events per run); the fluid
// plane (Options.PlaneMode = coord.PlaneFluid) is what makes the sweep
// ceiling reachable, so that is the intended configuration.

// ScalePoint is one overlay size of the scale sweep, averaged over
// seeds; Point.H is the sweep's fixed fanout.
type ScalePoint struct {
	N int
	Point
}

// ScaleCurve runs the protocol at fanout H for every overlay size in
// ns, with the data plane on, and averages Options.Seeds runs per
// point. Options.N and Options.Hs are ignored; everything else
// (PlaneMode, Rate, ContentLen, Window, impairments, Parallel) applies.
func ScaleCurve(protocol string, o Options, H int, ns []int) ([]ScalePoint, error) {
	o.normalize()
	if len(ns) == 0 {
		return nil, fmt.Errorf("experiment: scale sweep needs at least one overlay size")
	}
	jobs := make([]runJob, 0, len(ns)*o.Seeds)
	for _, n := range ns {
		if H < 1 || H > n {
			return nil, fmt.Errorf("experiment: scale sweep H=%d out of range 1..n=%d", H, n)
		}
		p := o
		p.N = n
		for seed := 0; seed < o.Seeds; seed++ {
			jobs = append(jobs, runJob{protocol, p.pointConfig(H, seed, true)})
		}
	}
	recs, err := runRecords(jobs, o.Parallel, false, false)
	if err != nil {
		return nil, err
	}
	out := make([]ScalePoint, 0, len(ns))
	for i, n := range ns {
		out = append(out, ScalePoint{N: n, Point: point(H, recs[i*o.Seeds:(i+1)*o.Seeds])})
	}
	return out, nil
}

// FprintScaleCurve renders a scale sweep as an aligned table.
func FprintScaleCurve(w io.Writer, title string, pts []ScalePoint) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%8s %14s %12s %20s %12s %10s %14s\n",
		"n", "rounds", "sync-rounds", "control-packets", "active", "sync-time", "receipt-rate")
	for _, p := range pts {
		fmt.Fprintf(w, "%8d %8.2f ±%4.2f %12.2f %13.1f ±%5.1f %12.1f %10.2f %8.3f ±%5.3f\n",
			p.N, p.Rounds, p.RoundsCI, p.SyncRounds, p.ControlPackets, p.ControlPacketsCI,
			p.ActivePeers, p.SyncTime, p.ReceiptRate, p.ReceiptRateCI)
	}
}

// ScaleCurveCSV renders a scale sweep as CSV.
func ScaleCurveCSV(protocol string, pts []ScalePoint) string {
	var b strings.Builder
	b.WriteString("protocol,n,rounds,sync_rounds,control_packets,active_peers,sync_time,receipt_rate\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%s,%d,%.3f,%.3f,%.1f,%.1f,%.3f,%.4f\n",
			protocol, p.N, p.Rounds, p.SyncRounds, p.ControlPackets, p.ActivePeers, p.SyncTime, p.ReceiptRate)
	}
	return b.String()
}
