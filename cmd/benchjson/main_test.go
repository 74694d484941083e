package main

import (
	"io"
	"strings"
	"testing"
)

func TestBaseName(t *testing.T) {
	for name, want := range map[string]string{
		"BenchmarkUnion-2":             "BenchmarkUnion",
		"BenchmarkUnion-16":            "BenchmarkUnion",
		"BenchmarkServeRequest/warm-4": "BenchmarkServeRequest/warm",
		"BenchmarkUnion":               "BenchmarkUnion",
		"BenchmarkRecover/1k-x":        "BenchmarkRecover/1k-x",
		"BenchmarkTrailing-":           "BenchmarkTrailing-",
	} {
		if got := baseName(name); got != want {
			t.Errorf("baseName(%q) = %q, want %q", name, got, want)
		}
	}
}

// -compare fails on B/op or allocs/op grown past the tolerance, matches
// across GOMAXPROCS suffixes, ignores ns/op, skips benchmarks the
// baseline lacks, and fails when a baseline row other than a
// BenchmarkParent* one is missing from the run.
func TestCompareReports(t *testing.T) {
	base := parse(strings.Split(`BenchmarkParentUnion-2   10   999999 ns/op   999999 B/op   99 allocs/op
BenchmarkUnion-2   10   1000 ns/op   196608 B/op   1 allocs/op
BenchmarkDivide-2   10   1000 ns/op   1000 B/op   17 allocs/op`, "\n"))
	const divide = "BenchmarkDivide-2 10 1000 ns/op 1000 B/op 17 allocs/op"
	for _, c := range []struct {
		run  []string
		fail bool
	}{
		{[]string{"BenchmarkUnion-4 10 9000 ns/op 196608 B/op 1 allocs/op", divide}, false},                                                             // slower only
		{[]string{"BenchmarkUnion-4 10 1000 ns/op 393216 B/op 1 allocs/op", divide}, true},                                                              // 2× B/op
		{[]string{"BenchmarkUnion-4 10 1000 ns/op 210000 B/op 1 allocs/op", divide}, false},                                                             // +6.8 %, within 10 %
		{[]string{"BenchmarkUnion-4 10 1000 ns/op 230000 B/op 1 allocs/op", divide}, true},                                                              // +17 %
		{[]string{"BenchmarkUnion-2 10 1000 ns/op 196608 B/op 1 allocs/op", "BenchmarkDivide-2 10 1000 ns/op 1000 B/op 19 allocs/op"}, true},            // +2 allocs
		{[]string{"BenchmarkUnion-2 10 1000 ns/op 100 B/op 0 allocs/op", divide}, false},                                                                // shrank
		{[]string{"BenchmarkUnion-2 10 1000 ns/op 196608 B/op 1 allocs/op", divide, "BenchmarkNew-2 10 1000 ns/op 1000000 B/op 1000 allocs/op"}, false}, // no baseline
		{[]string{divide}, true}, // Union dropped out
		{[]string{"BenchmarkUnionRenamed-2 10 1000 ns/op 196608 B/op 1 allocs/op", divide}, true}, // Union renamed
	} {
		if got := compareReports(io.Discard, base, parse(c.run), 0.10); got != c.fail {
			t.Errorf("%v: failed = %v, want %v", c.run, got, c.fail)
		}
	}
}

// Two go test runs piped into one document name each package once.
func TestParsePackagesOnce(t *testing.T) {
	rep := parse([]string{"pkg: p2pmss/internal/seq", "pkg: p2pmss/internal/engine", "pkg: p2pmss/internal/engine"})
	if rep.Package != "p2pmss/internal/seq,p2pmss/internal/engine" {
		t.Errorf("Package = %q", rep.Package)
	}
}
