package experiment

import (
	"encoding/xml"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Reference [6]'s phase transition behind DCoP's H ≳ ln n: below it
// gossip reaches a fraction of the peers, from ln n on nearly all.
func TestGossipCoverageNearOneFromLnN(t *testing.T) {
	const n = 200
	pts, err := GossipCoverage(n, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	lnN := math.Log(n)
	for _, p := range pts {
		if p.Fanout == 1 && p.Coverage > 0.5 {
			t.Errorf("fanout 1 reached %.3f of the peers", p.Coverage)
		}
		if float64(p.Fanout) >= lnN && p.Coverage < 0.99 {
			t.Errorf("fanout %d ≥ ln n = %.1f reached only %.3f", p.Fanout, lnN, p.Coverage)
		}
	}
	var b strings.Builder
	FprintGossipCoverage(&b, n, pts)
	if got := strings.Count(b.String(), "\n"); got != len(pts)+2 {
		t.Errorf("table has %d lines for %d points:\n%s", got, len(pts), b.String())
	}
}

// Both chart kinds render to well-formed SVG files.
func TestChartsWriteWellFormedSVG(t *testing.T) {
	d := Series{Protocol: "dcop", Points: []Point{{H: 2, Rounds: 3, ControlPackets: 200, ReceiptRate: 1.4}, {H: 10, Rounds: 2, ControlPackets: 900, ReceiptRate: 1.1}}}
	tc := Series{Protocol: "tcop", Points: []Point{{H: 2, Rounds: 6, ControlPackets: 400, ReceiptRate: 1.5}, {H: 10, Rounds: 5, ControlPackets: 2000, ReceiptRate: 1.2}}}
	dir := filepath.Join(t.TempDir(), "figures")
	if err := WriteSVG(dir, "rounds", RoundsChart("Figure 10", d)); err != nil {
		t.Fatal(err)
	}
	if err := WriteSVG(dir, "rate", RateChart("Figure 12", d, tc)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"rounds", "rate"} {
		f, err := os.Open(filepath.Join(dir, name+".svg"))
		if err != nil {
			t.Fatal(err)
		}
		dec := xml.NewDecoder(f)
		root := ""
		for {
			tok, err := dec.Token()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s.svg: %v", name, err)
			}
			if se, ok := tok.(xml.StartElement); ok && root == "" {
				root = se.Name.Local
			}
		}
		f.Close()
		if root != "svg" {
			t.Errorf("%s.svg root element %q", name, root)
		}
	}
}
