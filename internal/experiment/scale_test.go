package experiment

import (
	"math"
	"strings"
	"testing"

	"p2pmss/internal/coord"
)

// EXPERIMENTS.md's scale claim: on the fluid plane at H = 10, rounds grow
// as ~log_H(n) and control packets linearly. From n = 10² to 10⁴,
// log_H(n) doubles, so the round count may at most about double too;
// linear growth would multiply it by 100.
func TestScaleCurveRoundsGrowLogarithmically(t *testing.T) {
	o := Options{Seeds: 2, PlaneMode: coord.PlaneFluid, Parallel: 2}
	ns := []int{100, 1000, 10000}
	for _, proto := range []string{coord.DCoP, coord.TCoP} {
		pts, err := ScaleCurve(proto, o, 10, ns)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != len(ns) {
			t.Fatalf("%s: %d points for %d sizes", proto, len(pts), len(ns))
		}
		for i, p := range pts {
			if p.N != ns[i] || p.H != 10 {
				t.Errorf("%s: point %d is n=%d H=%d", proto, i, p.N, p.H)
			}
			if p.ActivePeers < 0.99*float64(p.N) || p.ReceiptRate < 1 {
				t.Errorf("%s n=%d: %.1f active, receipt rate %.3f", proto, p.N, p.ActivePeers, p.ReceiptRate)
			}
			if i > 0 && p.Rounds < pts[i-1].Rounds {
				t.Errorf("%s: rounds fall from %.2f to %.2f as n grows to %d", proto, pts[i-1].Rounds, p.Rounds, p.N)
			}
		}
		first, last := pts[0], pts[len(pts)-1]
		if r := last.Rounds / first.Rounds; r > 2.5 {
			t.Errorf("%s: rounds grow %.2f× from n=%d to n=%d, want ≤ 2.5× (log_H(n) doubles)",
				proto, r, first.N, last.N)
		}
		if r := last.ControlPackets / first.ControlPackets; math.Abs(r-100) > 10 {
			t.Errorf("%s: control packets grow %.1f× for 100× the peers, want ≈ 100×", proto, r)
		}
	}
}

func TestScaleCurveRendering(t *testing.T) {
	pts := []ScalePoint{{N: 100, Point: Point{H: 10, Rounds: 4, ReceiptRate: 1.3}}}
	var b strings.Builder
	FprintScaleCurve(&b, "scale", pts)
	lines := strings.Split(b.String(), "\n")
	if lines[0] != "scale" || !strings.Contains(lines[1], "receipt-rate") || !strings.HasPrefix(strings.TrimSpace(lines[2]), "100 ") {
		t.Errorf("table:\n%s", b.String())
	}
	csv := ScaleCurveCSV(coord.DCoP, pts)
	if want := "protocol,n,rounds,sync_rounds,control_packets,active_peers,sync_time,receipt_rate\ndcop,100,4.000,"; !strings.HasPrefix(csv, want) {
		t.Errorf("CSV:\n%s", csv)
	}
	if _, err := ScaleCurve(coord.DCoP, Options{}, 10, nil); err == nil {
		t.Error("empty size list accepted")
	}
	if _, err := ScaleCurve(coord.DCoP, Options{}, 20, []int{10}); err == nil {
		t.Error("H > n accepted")
	}
}
