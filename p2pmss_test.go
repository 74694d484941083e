package p2pmss

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestSimulatePublicAPI(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.N = 30
	cfg.H = 10
	for _, proto := range Protocols {
		res, err := Simulate(proto, cfg)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if res.Protocol != proto {
			t.Errorf("protocol = %q", res.Protocol)
		}
		if res.ActivePeers == 0 {
			t.Errorf("%s: no peers activated", proto)
		}
	}
}

func TestExperimentPublicAPI(t *testing.T) {
	o := DefaultExperimentOptions()
	o.N = 20
	o.Hs = []int{5, 20}
	o.Seeds = 1
	s, err := Figure10(o)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	PrintSeries(&b, "fig10", s)
	if !strings.Contains(b.String(), "fig10") {
		t.Error("PrintSeries output missing title")
	}
	if !strings.Contains(SeriesCSV(s), "dcop") {
		t.Error("CSV missing protocol")
	}
	if s11, err := Figure11(o); err != nil || s11.Protocol != TCoP || len(s11.Points) != 2 {
		t.Errorf("Figure11 = %+v, %v", s11, err)
	}
	small := ExperimentOptions{N: 10, Hs: []int{4}, Seeds: 1, Rate: 2, ContentLen: 2000, Window: 40}
	d, tc, err := Figure12(small)
	if err != nil {
		t.Fatal(err)
	}
	var rb strings.Builder
	PrintRateSeries(&rb, "fig12", d, tc)
	if !strings.Contains(rb.String(), "TCoP rate") || d.Points[0].ReceiptRate <= 0 || tc.Points[0].ReceiptRate <= 0 {
		t.Errorf("Figure12 table:\n%s", rb.String())
	}
	rows, err := Baselines(small, 4)
	if err != nil {
		t.Fatal(err)
	}
	var bb strings.Builder
	PrintBaselines(&bb, "base", rows)
	if !strings.Contains(bb.String(), "unicast") {
		t.Error("baseline table missing unicast")
	}
}

func TestAllocatePublicAPI(t *testing.T) {
	al := Allocate(7, ProportionalChannels(4, 2, 1))
	if len(al.PerChannel[0]) != 4 {
		t.Errorf("fast channel got %v", al.PerChannel[0])
	}
	a := NewAllocator(ProportionalChannels(1, 1))
	a.Next()
	a.SetSlotLen(0, 2)
	a.Next()
	if a.Allocated() != 2 {
		t.Error("allocator miscounts")
	}
}

func TestContentAndAssemblerPublicAPI(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	c := NewContent("q", data, 8)
	a := NewAssembler(len(data), 8)
	for k := int64(1); k <= c.NumPackets(); k++ {
		a.Add(c.Packet(k))
	}
	got, ok := a.Bytes()
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("assembler round trip failed")
	}
}

// Every observer a user can attach through Observability records a
// simulated run, and the debug mux serves the registry.
func TestObservabilityPublicAPI(t *testing.T) {
	reg := NewMetricsRegistry()
	spans := NewSpanCollector()
	flights := NewFlightSet(0)
	cfg := DefaultSimConfig()
	cfg.N = 12
	cfg.H = 3
	cfg.Obs = Observability{Metrics: reg, Spans: spans, Flight: flights}
	if _, err := Simulate(TCoP, cfg); err != nil {
		t.Fatal(err)
	}
	if len(spans.Spans()) == 0 || len(flights.Events()) == 0 {
		t.Errorf("run recorded %d spans, %d flight events", len(spans.Spans()), len(flights.Events()))
	}
	rec := httptest.NewRecorder()
	MetricsDebugMux(reg).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "coord_control_packets_total") {
		t.Errorf("/metrics = %d:\n%.300s", rec.Code, rec.Body.String())
	}
}
