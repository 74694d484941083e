package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"p2pmss/internal/coord"
	"p2pmss/internal/flight"
)

var update = flag.Bool("update", false, "rewrite the timeline golden files")

// checkGolden compares got with testdata/<name>, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./cmd/msstrace -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("timeline differs from %s:\n%s", path, got)
	}
}

// The default timeline of a fixed seed is pinned line for line: the
// simulator is deterministic, so any change here is a change to what the
// engine records or to the one formatter.
func TestTimelineGoldenSimTCoP(t *testing.T) {
	set, _, err := simulate(coord.TCoP, 12, 3, 1, 512)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	printTimeline(&b, set.Events(), 0)
	checkGolden(t, "tcop_n12_h3_seed1.golden", b.String())
}

// A live flight dump arrives in (session, peer, seq) order with wall-clock
// stamps and session labels; the same formatter interleaves it by time,
// keeps per-peer order on ties, prints driver notes and the leaf's -1
// id, and honours -limit.
func TestTimelineGoldenLiveStyle(t *testing.T) {
	log := []flight.Event{
		{Seq: 0, T: 0.000120, Session: "s1", Peer: 0, Dir: "ev", Type: "request", Other: -1, Round: 1, N: 40},
		{Seq: 1, T: 0.000120, Session: "s1", Peer: 0, Dir: "eff", Type: "activate", Round: 1, N: 40},
		{Seq: 2, T: 0.000120, Session: "s1", Peer: 0, Dir: "eff", Type: "send_control", Other: 2, Round: 2, N: 13},
		{Seq: 3, T: 0.020731, Session: "s1", Peer: 0, Dir: "ev", Type: "confirm_ok", Other: 2, Round: 3},
		{Seq: 4, T: 0.020731, Session: "s1", Peer: 0, Dir: "eff", Type: "handoff", Other: 7, N: 1},
		{Seq: 0, T: 0.010406, Session: "s1", Peer: 2, Dir: "ev", Type: "control", Other: 0, Round: 2, N: 13},
		{Seq: 1, T: 0.010406, Session: "s1", Peer: 2, Dir: "eff", Type: "send_confirm_ok", Other: 0, Round: 3},
		{Seq: 2, T: 0.250000, Session: "s1", Peer: 2, Dir: "drv", Type: "crash"},
		{Seq: 0, T: 0.000120, Session: "s0", Peer: 1, Dir: "ev", Type: "request", Other: -1, Round: 1, N: 40},
		{Seq: 0, T: 0.500000, Session: "s1", Peer: -1, Dir: "drv", Type: "repair_request", Other: 0, N: 64},
	}
	var b bytes.Buffer
	printTimeline(&b, log, 0)
	checkGolden(t, "live_style.golden", b.String())

	b.Reset()
	printTimeline(&b, log, 3)
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	if len(lines) != 4 || lines[3] != "... 7 more (raise -limit)" {
		t.Errorf("limit 3 printed:\n%s", b.String())
	}
}

// Every protocol — engine-backed or baseline — yields a non-empty,
// time-ordered timeline that shows its activations.
func TestTimelineAllProtocols(t *testing.T) {
	for _, proto := range coord.Protocols {
		set, res, err := simulate(proto, 6, 3, 1, 512)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		var b bytes.Buffer
		printTimeline(&b, set.Events(), 0)
		last, activations := -1.0, 0
		for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
			f := strings.Fields(line)
			ts, err := strconv.ParseFloat(f[0], 64)
			if err != nil || ts < last {
				t.Fatalf("%s: line %q out of time order (previous t=%v)", proto, line, last)
			}
			last = ts
			if f[3] == "activate" {
				activations++
			}
		}
		if activations != res.ActivePeers || activations == 0 {
			t.Errorf("%s: %d activate lines, %d active peers", proto, activations, res.ActivePeers)
		}
	}
}
