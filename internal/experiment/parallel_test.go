package experiment

import (
	"reflect"
	"strings"
	"testing"

	"p2pmss/internal/coord"
)

// renderAll captures every byte the harness can emit for a series, so
// the parallel/serial comparison covers tables and CSV alike.
func renderAll(t *testing.T, s Series) string {
	t.Helper()
	var b strings.Builder
	FprintSeries(&b, "golden", s)
	b.WriteString(SeriesCSV(s))
	return b.String()
}

// The tentpole guarantee: fanning the sweep grid out over a worker pool
// changes nothing about the results — series, tables and CSV are
// byte-identical to the serial path.
func TestParallelSweepByteIdentical(t *testing.T) {
	o := smallOpts()
	o.Hs = []int{5, 10, 20}

	serial := o
	serial.Parallel = 1
	par := o
	par.Parallel = 8

	s1, err := Figure10(serial)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Figure10(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("parallel series differs from serial:\n%+v\n%+v", s1, s2)
	}
	if g1, g2 := renderAll(t, s1), renderAll(t, s2); g1 != g2 {
		t.Errorf("rendered output differs:\n%s\n---\n%s", g1, g2)
	}
}

func TestParallelDataPlaneSweepByteIdentical(t *testing.T) {
	o := smallOpts()
	o.Hs = []int{5, 10}
	o.Seeds = 2
	o.ContentLen = 2000
	o.Window = 40

	serial := o
	serial.Parallel = 1
	par := o
	par.Parallel = -1 // NumCPU

	d1, t1, err := Figure12(serial)
	if err != nil {
		t.Fatal(err)
	}
	d2, t2, err := Figure12(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(t1, t2) {
		t.Error("parallel Figure12 differs from serial")
	}
	var b1, b2 strings.Builder
	FprintRateSeries(&b1, "golden", d1, t1)
	FprintRateSeries(&b2, "golden", d2, t2)
	if b1.String() != b2.String() {
		t.Errorf("rendered rate tables differ:\n%s\n---\n%s", b1.String(), b2.String())
	}
}

func TestParallelBaselinesByteIdentical(t *testing.T) {
	o := smallOpts()
	o.Seeds = 1
	o.ContentLen = 1500
	o.Window = 40

	serial := o
	serial.Parallel = 1
	par := o
	par.Parallel = 6

	r1, err := Baselines(serial, 5)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Baselines(par, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("parallel baselines differ:\n%+v\n%+v", r1, r2)
	}
}

// Instrumented JSON sweeps hold the same guarantee: per-run records —
// results and metrics snapshots included — are byte-identical between
// the serial path and any worker count, and identical result-wise to an
// uninstrumented sweep.
func TestParallelInstrumentedRecordsByteIdentical(t *testing.T) {
	o := smallOpts()
	o.Hs = []int{5, 10}
	o.Seeds = 2
	o.ContentLen = 2000
	o.Window = 40
	o.Instrument = true

	serial := o
	serial.Parallel = 1
	par := o
	par.Parallel = 8

	render := func(o Options) string {
		recs, err := SweepRecords(o, true, coord.DCoP)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := WriteRecordsJSONL(&b, recs); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	j1, j2 := render(serial), render(par)
	if j1 != j2 {
		t.Errorf("instrumented JSONL differs serial vs parallel:\n%s\n---\n%s", j1, j2)
	}
	if !strings.Contains(j1, `"metrics"`) || !strings.Contains(j1, "coord_control_packets_total") {
		t.Errorf("records missing metrics snapshots:\n%.400s", j1)
	}

	// The instrumented runs' results equal the bare runs' results.
	bare := serial
	bare.Instrument = false
	bareRecs, err := SweepRecords(bare, true, coord.DCoP)
	if err != nil {
		t.Fatal(err)
	}
	instrRecs, err := SweepRecords(serial, true, coord.DCoP)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bareRecs {
		if !reflect.DeepEqual(bareRecs[i].Result, instrRecs[i].Result) {
			t.Errorf("run %d: instrumented result differs from bare", i)
		}
		if instrRecs[i].Metrics == nil || bareRecs[i].Metrics != nil {
			t.Errorf("run %d: metrics presence wrong (instr=%v bare=%v)",
				i, instrRecs[i].Metrics != nil, bareRecs[i].Metrics != nil)
		}
	}
}

// An out-of-range sweep point is an error, not a silently shorter
// series.
func TestSweepRejectsOutOfRangeH(t *testing.T) {
	o := smallOpts()
	o.Hs = []int{5, o.N + 10}
	if _, err := Figure10(o); err == nil {
		t.Error("H > N accepted by Figure10")
	} else if !strings.Contains(err.Error(), "out of range") {
		t.Errorf("unhelpful error: %v", err)
	}
	o.Hs = []int{0}
	if _, err := Figure10(o); err == nil {
		t.Error("H = 0 accepted by Figure10")
	}
	o = smallOpts()
	if _, _, err := Figure12(Options{N: o.N, Hs: []int{o.N + 1}}); err == nil {
		t.Error("H > N accepted by Figure12")
	}
	if _, err := Baselines(o, o.N+1); err == nil {
		t.Error("H > N accepted by Baselines")
	}
}

// Errors inside the pool surface deterministically: the lowest-indexed
// failing job wins regardless of worker count.
func TestRunGridDeterministicError(t *testing.T) {
	good := coord.DefaultConfig()
	good.N = 8
	good.H = 4
	bad1 := good
	bad1.Rate = -1 // invalid: distinct message
	bad2 := good
	bad2.N = -5 // invalid: distinct message
	jobs := []runJob{
		{coord.DCoP, good},
		{coord.DCoP, bad1},
		{coord.DCoP, bad2},
		{coord.DCoP, good},
	}
	_, errSerial := runGrid(jobs, 1)
	if errSerial == nil {
		t.Fatal("invalid job accepted")
	}
	for trial := 0; trial < 4; trial++ {
		_, errPar := runGrid(jobs, 4)
		if errPar == nil || errPar.Error() != errSerial.Error() {
			t.Fatalf("parallel error %v != serial %v", errPar, errSerial)
		}
	}
}

// A parallel sweep's workers each run in an arena an earlier run left
// (coord.Run recycles them): two lossy, instrumented sweeps in a row,
// the second on the first's arenas and both over every plane, write the
// same records byte for byte. Under -race it also shows that no two
// workers share an arena.
func TestParallelSweepRepeatsOnRecycledArenas(t *testing.T) {
	o := smallOpts()
	o.Hs = []int{5, 20}
	o.ContentLen = 1500
	o.Window = 40
	o.LossProb = 0.03
	o.Instrument = true
	o.Parallel = 4
	sweep := func() string {
		var b strings.Builder
		for _, plane := range []coord.DataPlaneMode{"", coord.PlanePacket, coord.PlaneFluid} {
			o.PlaneMode = plane
			recs, err := SweepRecords(o, plane != "", coord.DCoP, coord.TCoP)
			if err != nil {
				t.Fatal(err)
			}
			if err := WriteRecordsJSONL(&b, recs); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	if first, second := sweep(), sweep(); first != second {
		t.Errorf("a second parallel sweep wrote other records:\n%s\n--the first--\n%s", second, first)
	}
}
