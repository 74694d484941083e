package span

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestNilCollectorIsDisabled pins the disabled contract every driver
// relies on: a nil collector hands out span ID 0, accepts Add silently,
// and reports no spans.
func TestNilCollectorIsDisabled(t *testing.T) {
	var c *Collector
	if id := c.NextID(); id != 0 {
		t.Errorf("nil NextID = %d, want 0", id)
	}
	c.Add(Span{Trace: 1, ID: 1, Name: "x"}) // must not panic
	if got := c.Spans(); got != nil {
		t.Errorf("nil Spans = %v, want nil", got)
	}
	if c.Len() != 0 {
		t.Errorf("nil Len = %d, want 0", c.Len())
	}
}

// TestCollectorIDsAreDense pins that a single-threaded driver sees
// 1, 2, 3, ... — the property that makes seeded traces reproducible.
func TestCollectorIDsAreDense(t *testing.T) {
	c := NewCollector()
	for want := SpanID(1); want <= 100; want++ {
		if got := c.NextID(); got != want {
			t.Fatalf("NextID = %d, want %d", got, want)
		}
	}
}

// TestCollectorDropsTracelessSpans: Add without a trace is a no-op, so
// a driver can stamp spans unconditionally and let the zero context
// filter itself out.
func TestCollectorDropsTracelessSpans(t *testing.T) {
	c := NewCollector()
	c.Add(Span{ID: 1, Name: "orphan"})
	if c.Len() != 0 {
		t.Errorf("traceless span was collected")
	}
}

// TestCollectorConcurrentAddsSortedReads hammers the sharded collector
// from many goroutines and checks Spans() returns every span exactly
// once in (Trace, ID, Peer) order.
func TestCollectorConcurrentAddsSortedReads(t *testing.T) {
	c := NewCollector()
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := c.NextID()
				c.Add(Span{Trace: TraceID(1 + w%2), ID: id, Peer: w, Name: "s"})
			}
		}(w)
	}
	wg.Wait()
	spans := c.Spans()
	if len(spans) != workers*per {
		t.Fatalf("len = %d, want %d", len(spans), workers*per)
	}
	seen := map[SpanID]bool{}
	for i, s := range spans {
		if seen[s.ID] {
			t.Fatalf("span ID %d collected twice", s.ID)
		}
		seen[s.ID] = true
		if i > 0 {
			prev := spans[i-1]
			if s.Trace < prev.Trace || (s.Trace == prev.Trace && s.ID < prev.ID) {
				t.Fatalf("spans out of order at %d: %+v after %+v", i, s, prev)
			}
		}
	}
}

// TestDeriveTrace pins determinism, non-zero-ness, and label
// sensitivity of the FNV trace derivation.
func TestDeriveTrace(t *testing.T) {
	if DeriveTrace("tcop/H=10/seed=3") != DeriveTrace("tcop/H=10/seed=3") {
		t.Error("DeriveTrace not deterministic")
	}
	if DeriveTrace("a") == DeriveTrace("b") {
		t.Error("distinct labels collided")
	}
	for _, label := range []string{"", "x", "tcop/H=2/seed=0"} {
		if DeriveTrace(label) == 0 {
			t.Errorf("DeriveTrace(%q) = 0; zero means no-trace", label)
		}
	}
}

// TestJSONLRoundTrip writes spans and reads them back unchanged,
// including blank-line tolerance.
func TestJSONLRoundTrip(t *testing.T) {
	in := []Span{
		{Trace: 7, ID: 1, Name: "session", Peer: -1, Start: 0, End: 2.5, Detail: "s1"},
		{Trace: 7, ID: 2, Parent: 1, Name: "handshake", Peer: 3, Start: 0.5, End: 1.25},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	withBlank := strings.Replace(buf.String(), "\n", "\n\n", 1)
	out, err := ReadJSONL(strings.NewReader(withBlank))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d spans, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("span %d: %+v != %+v", i, in[i], out[i])
		}
	}
}

// TestReadJSONLBadLine reports the failing line number.
func TestReadJSONLBadLine(t *testing.T) {
	_, err := ReadJSONL(strings.NewReader("{\"trace\":1}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want line-2 parse failure", err)
	}
}

// TestPerfettoExport checks the trace-event output is valid JSON with
// one process per trace, a metadata track per (trace, peer), the leaf
// on tid 0, and instant spans floored to 1 µs so Perfetto shows them.
func TestPerfettoExport(t *testing.T) {
	spans := []Span{
		{Trace: 5, ID: 1, Name: "session", Peer: -1, Start: 0, End: 1},
		{Trace: 5, ID: 2, Parent: 1, Name: "commit", Peer: 2, Start: 0.5, End: 0.5},
		{Trace: 9, ID: 1, Name: "session", Peer: -1, Start: 0, End: 2},
	}
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("perfetto output is not a JSON array: %v", err)
	}
	procs := map[float64]bool{}
	var sawCommit, sawLeafTrack bool
	for _, e := range events {
		switch e["ph"] {
		case "M":
			if e["name"] == "process_name" {
				procs[e["pid"].(float64)] = true
			}
			if e["name"] == "thread_name" && e["tid"].(float64) == 0 {
				sawLeafTrack = true
			}
		case "X":
			if e["name"] == "commit" {
				sawCommit = true
				if dur := e["dur"].(float64); dur < 1 {
					t.Errorf("instant span dur = %v µs, want >= 1", dur)
				}
				if tid := e["tid"].(float64); tid != 3 { // peer 2 -> tid 3
					t.Errorf("commit tid = %v, want 3", tid)
				}
			}
		default:
			t.Errorf("unexpected phase %v", e["ph"])
		}
	}
	if len(procs) != 2 {
		t.Errorf("process_name metadata for %d traces, want 2", len(procs))
	}
	if !sawCommit || !sawLeafTrack {
		t.Errorf("missing events: commit=%v leafTrack=%v", sawCommit, sawLeafTrack)
	}
}

// TestSummarizeQuantiles pins the nearest-rank quantiles on a known
// duration set.
func TestSummarizeQuantiles(t *testing.T) {
	var spans []Span
	for i := 1; i <= 100; i++ {
		spans = append(spans, Span{
			Trace: 3, ID: SpanID(i), Name: "handshake",
			Start: 0, End: float64(i), // durations 1..100
		})
	}
	spans = append(spans, Span{Trace: 3, ID: 101, Name: "commit", Start: 1, End: 1})
	rows := Summarize(spans)
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	// Sorted by name within the trace: commit first.
	if rows[0].Name != "commit" || rows[0].Count != 1 || rows[0].Max != 0 {
		t.Errorf("commit row = %+v", rows[0])
	}
	hs := rows[1]
	if hs.Name != "handshake" || hs.Count != 100 {
		t.Fatalf("handshake row = %+v", hs)
	}
	for _, q := range []struct {
		name string
		got  float64
		want float64
	}{{"p50", hs.P50, 50}, {"p95", hs.P95, 95}, {"p99", hs.P99, 99}, {"max", hs.Max, 100}} {
		if q.got != q.want {
			t.Errorf("%s = %v, want %v", q.name, q.got, q.want)
		}
	}
	var buf bytes.Buffer
	FprintSummary(&buf, rows)
	if !strings.Contains(buf.String(), "handshake") || !strings.Contains(buf.String(), fmt.Sprintf("%x", 3)) {
		t.Errorf("summary table missing rows:\n%s", buf.String())
	}
}
