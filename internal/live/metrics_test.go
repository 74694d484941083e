package live

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"p2pmss/internal/engine"
	"p2pmss/internal/metrics"
)

// scrape GETs url and returns each non-comment sample line as
// series -> value.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// sumSeries totals all series of one metric family (any label set).
func sumSeries(samples map[string]float64, family string) (total float64, n int) {
	for series, v := range samples {
		if series == family || strings.HasPrefix(series, family+"{") {
			total += v
			n++
		}
	}
	return total, n
}

// TestSessionMetricsScrapeMidStream is the metrics acceptance test: a
// live session instrumented on a shared registry serves Prometheus-format
// /metrics over HTTP, and a scrape taken while the stream is in flight
// shows non-zero data-packets-sent and leaf-delivery counters.
func TestSessionMetricsScrapeMidStream(t *testing.T) {
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i * 31)
	}
	reg := metrics.New()
	_, ls := startSession(t, NodesConfig{H: 3, Interval: 4, Seed: 42, Obs: engine.Observability{Metrics: reg}}, 8, data,
		SessionConfig{PacketSize: 256, Rate: 600})

	srv := httptest.NewServer(metrics.DebugMux(reg))
	defer srv.Close()

	// Wait until the stream is demonstrably mid-flight: the leaf holds
	// some packets but (typically) not yet all of them.
	deadline := time.Now().Add(10 * time.Second)
	for ls.Progress() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no delivery progress within 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}

	samples := scrape(t, srv.URL+"/metrics")
	sent, series := sumSeries(samples, "live_data_packets_sent_total")
	if sent <= 0 || series == 0 {
		t.Errorf("live_data_packets_sent_total: want >0 across >0 series, got %v across %d", sent, series)
	}
	if v, _ := sumSeries(samples, "live_leaf_delivered_packets"); v <= 0 {
		t.Errorf("live_leaf_delivered_packets = %v, want > 0", v)
	}
	if v, _ := sumSeries(samples, "live_leaf_arrivals_total"); v <= 0 {
		t.Errorf("live_leaf_arrivals_total = %v, want > 0", v)
	}
	if v, _ := sumSeries(samples, "transport_messages_sent_total"); v <= 0 {
		t.Errorf("transport_messages_sent_total = %v, want > 0", v)
	}

	// The sidecar endpoints serve too.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok\n" {
		t.Errorf("/healthz = %q, want ok", body)
	}

	waitExact(t, ls, data, 30*time.Second)
	// After completion the delivered gauge matches the leaf's own count.
	final := scrape(t, srv.URL+"/metrics")
	if v, _ := sumSeries(final, "live_leaf_delivered_packets"); int64(v) != ls.Progress() {
		t.Errorf("delivered gauge %v != leaf progress %d", v, ls.Progress())
	}
}

// TestSessionMetricsTCP exercises the TCP transport counters end to end.
func TestSessionMetricsTCP(t *testing.T) {
	data := make([]byte, 8<<10)
	for i := range data {
		data[i] = byte(i)
	}
	reg := metrics.New()
	_, ls := startSession(t, NodesConfig{H: 2, Interval: 4, UseTCP: true, Seed: 7, Obs: engine.Observability{Metrics: reg}}, 4, data,
		SessionConfig{PacketSize: 256, Rate: 2000})
	waitExact(t, ls, data, 30*time.Second)
	snap := reg.Snapshot()
	var sent, received int64
	for _, c := range snap.Counters {
		switch c.Name {
		case "transport_messages_sent_total":
			sent += c.Value
		case "transport_messages_received_total":
			received += c.Value
		}
	}
	if sent == 0 || received == 0 {
		t.Errorf("tcp transport counters: sent=%d received=%d, want both > 0", sent, received)
	}
}
