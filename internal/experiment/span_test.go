package experiment

import (
	"reflect"
	"strings"
	"testing"

	"p2pmss/internal/coord"
	"p2pmss/internal/span"
)

// TestTraceDeterministicAcrossWorkers is the observability twin of the
// parallel-sweep guarantee: collecting spans perturbs neither the
// results nor itself — the trace bytes are identical between the serial
// path and a parallel pool, and the results are byte-identical to an
// untraced sweep.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	o := smallOpts()
	o.Hs = []int{5, 10}
	o.Seeds = 2
	o.CollectSpans = true

	render := func(workers int) (string, []RunRecord) {
		oo := o
		oo.Parallel = workers
		recs, err := SweepRecords(oo, false, coord.TCoP)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := span.WriteJSONL(&b, Spans(recs)); err != nil {
			t.Fatal(err)
		}
		return b.String(), recs
	}
	t1, r1 := render(1)
	t8, r8 := render(8)
	if t1 != t8 {
		t.Error("trace bytes differ between serial and 8-worker sweeps")
	}
	if t1 == "" {
		t.Fatal("traced sweep produced no spans")
	}
	for i := range r1 {
		if !reflect.DeepEqual(r1[i].Result, r8[i].Result) {
			t.Errorf("run %d: result differs across worker counts", i)
		}
	}

	// Tracing never perturbs the simulation: an untraced sweep yields
	// the same results.
	bare := o
	bare.CollectSpans = false
	bareRecs, err := SweepRecords(bare, false, coord.TCoP)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bareRecs {
		if !reflect.DeepEqual(bareRecs[i].Result, r1[i].Result) {
			t.Errorf("run %d: traced result differs from bare", i)
		}
		if len(bareRecs[i].Spans) != 0 {
			t.Errorf("run %d: untraced record carries %d spans", i, len(bareRecs[i].Spans))
		}
		if len(r1[i].Spans) == 0 {
			t.Errorf("run %d: traced record carries no spans", i)
		}
	}
}

// TestTraceGridPointsGetDistinctTraces pins the per-grid-point trace
// derivation: H values sharing a seed must not collide into one trace.
func TestTraceGridPointsGetDistinctTraces(t *testing.T) {
	o := smallOpts()
	o.Hs = []int{5, 10}
	o.Seeds = 2
	o.CollectSpans = true
	recs, err := SweepRecords(o, false, coord.TCoP)
	if err != nil {
		t.Fatal(err)
	}
	traces := map[span.TraceID]bool{}
	for _, r := range recs {
		if len(r.Spans) == 0 {
			t.Fatalf("grid point H=%d seed=%d has no spans", r.H, r.Seed)
		}
		tr := r.Spans[0].Trace
		for _, s := range r.Spans {
			if s.Trace != tr {
				t.Fatalf("grid point H=%d seed=%d mixes traces", r.H, r.Seed)
			}
		}
		if traces[tr] {
			t.Fatalf("trace %x reused across grid points", uint64(tr))
		}
		traces[tr] = true
	}
	if len(traces) != len(recs) {
		t.Errorf("%d distinct traces for %d grid points", len(traces), len(recs))
	}
}

// TestTCoPCommitSpansParentedUnderConfirmWave is the issue's span
// acceptance check at the paper's scale: in a 100-peer TCoP run, every
// commit span must nest under a confirmation-wave span — the causal
// claim ("this commit concluded that retry wave") the tracing exists to
// make checkable.
func TestTCoPCommitSpansParentedUnderConfirmWave(t *testing.T) {
	o := smallOpts()
	o.N = 100
	o.Hs = []int{10}
	o.Seeds = 1
	o.CollectSpans = true
	recs, err := SweepRecords(o, false, coord.TCoP)
	if err != nil {
		t.Fatal(err)
	}
	spans := Spans(recs)
	byID := map[span.SpanID]span.Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	commits := 0
	for _, s := range spans {
		if s.Name != "commit" {
			continue
		}
		commits++
		parent, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("commit span %d has dangling parent %d", s.ID, s.Parent)
		}
		if parent.Name != "confirm_wave" {
			t.Errorf("commit span %d parented under %q, want confirm_wave", s.ID, parent.Name)
		}
	}
	// Commit spans are recorded at recruiting parents (one per closed
	// wave), so a 100-peer H=10 tree yields at least the ~N/H internal
	// parents; require that so the check cannot pass vacuously.
	if commits < o.N/o.Hs[0] {
		t.Errorf("only %d commit spans in a %d-peer run, want >= %d", commits, o.N, o.N/o.Hs[0])
	}
}
