package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"

	"p2pmss/internal/transport"
)

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.91, 10}, {0.1, 1}, {0.0001, 1}, {1, 10},
	} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
}

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {19, 0.5}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// The driver gates spreads with Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, _, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v .. %v, want 1.5 .. 12", q1, q3)
	}
	if got := relSpread([]float64{1, 2, 4, 8, 16}); got != (12-1.5)/4 {
		t.Errorf("relSpread = %v, want %v", got, (12-1.5)/4)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 40},  // overlaps 2: 10..40 covered once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent's end
		{ID: 5, Parent: 3, Start: 25, End: 30},
		{ID: 6, Start: 200, End: 250},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 30 - 10, 2: 20, 3: 15, 4: 30, 5: 5, 6: 50}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

// fakeEndpoint records what reaches the real transport.
type fakeEndpoint struct {
	sent []transport.Msg
	fail map[int]error
}

func (f *fakeEndpoint) Name() string { return "n0" }
func (f *fakeEndpoint) Close() error { return nil }
func (f *fakeEndpoint) Send(_ string, m transport.Msg) error {
	f.sent = append(f.sent, m)
	return f.fail[len(f.sent)-1]
}

func TestWrappersPassMessagesThroughUnchangedAndInOrder(t *testing.T) {
	boom := errors.New("boom")
	var msgs []transport.Msg
	for i, typ := range []string{"request", "data", "control", "data", "commit", "weird"} {
		msgs = append(msgs, transport.Msg{Type: typ, From: "n1", Session: sessionName(i), Trace: uint64(i), Span: 7, Payload: []byte(`{"k":` + string(rune('0'+i)) + `}`)})
	}
	for _, on := range []bool{false, true} {
		rec := newRecorder(2)
		rec.on.Store(on)
		nt := &nodeTrace{rec: rec, node: 0, index: map[string]int32{"n0": 0, "n1": 1}}
		real := &fakeEndpoint{fail: map[int]error{2: boom}}
		ep := &tracedEndpoint{Endpoint: real, t: nt}
		for i, m := range msgs {
			err := ep.Send("n1", m)
			if want := real.fail[i]; err != want {
				t.Errorf("on=%v send %d: err = %v, want %v", on, i, err, want)
			}
		}
		if !reflect.DeepEqual(real.sent, msgs) {
			t.Errorf("on=%v: endpoint saw %v, want %v", on, real.sent, msgs)
		}
		var got []transport.Msg
		h := nt.wrapHandler(func(m transport.Msg) { got = append(got, m) })
		for _, m := range msgs {
			h(m)
		}
		if !reflect.DeepEqual(got, msgs) {
			t.Errorf("on=%v: handler saw %v, want %v", on, got, msgs)
		}
		spans := rec.all()
		if !on {
			if len(spans) != 0 {
				t.Errorf("recorder off, yet %d spans", len(spans))
			}
			continue
		}
		if len(spans) != 2*len(msgs) {
			t.Fatalf("%d spans, want %d", len(spans), 2*len(msgs))
		}
		if spans[1].Name != "transport.send.data" || spans[1].Op != 1 || spans[1].Peer != 1 || spans[1].Node != 0 {
			t.Errorf("second send span = %+v", spans[1])
		}
		if nt.sendErrors.Load() != 1 {
			t.Errorf("send errors = %d, want 1", nt.sendErrors.Load())
		}
		if want := int64(len(msgs[1].Payload) + len(msgs[3].Payload)); nt.dataBytes.Load() != want {
			t.Errorf("data bytes = %d, want %d", nt.dataBytes.Load(), want)
		}
	}
}

func TestControlSendInsideHandlerIsItsChild(t *testing.T) {
	rec := newRecorder(1)
	rec.on.Store(true)
	nt := &nodeTrace{rec: rec, index: map[string]int32{}}
	ep := &tracedEndpoint{Endpoint: &fakeEndpoint{}, t: nt}
	h := nt.wrapHandler(func(m transport.Msg) {
		ep.Send("x", transport.Msg{Type: "confirm", Session: m.Session}) //nolint:errcheck // the fake never fails
	})
	h(transport.Msg{Type: "control", Session: "s3"})
	ep.Send("x", transport.Msg{Type: "commit", Session: "s3"}) //nolint:errcheck // the fake never fails
	var handler, inside, outside span
	for _, s := range rec.all() {
		switch s.Name {
		case "transport.handler.control":
			handler = s
		case "transport.send.confirm":
			inside = s
		case "transport.send.commit":
			outside = s
		}
	}
	if handler.ID == 0 || inside.Parent != handler.ID {
		t.Errorf("send inside the handler has parent %d, want %d", inside.Parent, handler.ID)
	}
	if outside.Parent != 0 {
		t.Errorf("send after the handler returned has parent %d, want none", outside.Parent)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string                     `json:"command"`
	Paths      []string                     `json:"paths"`
	RunSeconds int                          `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []metricDef                  `json:"end_to_end"`
	PerLayer   []metricDef                  `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheCommand(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly 6", len(keys))
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadOrder) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, workloadOrder)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", f.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(f.Paths, []string{"cmd/mssbench"}) {
		t.Errorf("paths = %v", f.Paths)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	if len(f.EndToEnd) > 16 || len(f.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's caps", len(f.EndToEnd), len(f.PerLayer))
	}
}

// A shrunken run of every workload, untraced and traced: every declared
// metric is there and finite, nothing failed, and no end-to-end metric
// is 0.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range workloadOrder {
		for _, traced := range []bool{false, true} {
			o := runOptions{workload: name, seed: 3, seconds: 0.4, scale: 0.02, trace: traced}
			if traced {
				o.traceOut = t.TempDir() + "/spans.jsonl"
			}
			res, notes, err := runOne(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%v", name, traced, res.Correct, res.Attempted, res.Failed, notes)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, d.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", name, traced, d.Name, v.Value)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, v.Value)
				case v.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, want %q", name, d.Name, v.Unit, d.Unit)
				}
			}
			if traced {
				if st, err := os.Stat(o.traceOut); err != nil || st.Size() == 0 {
					t.Errorf("%s: no spans written: %v", name, err)
				}
			}
		}
	}
}
