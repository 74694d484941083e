package archtest

import (
	"slices"
	"sort"
	"strings"
	"testing"
)

const module = "p2pmss/"

// internalImports is every package under internal/ and the internal
// packages its non-test files import. The event log (trace, obs,
// protocol), the stats package and the second network (simnet, failure)
// were folded into the packages below; none of them, under any name,
// comes back without an entry here.
var internalImports = map[string][]string{
	"archtest":    nil, // test-only: these rules
	"conformance": nil, // test-only: the sim/live conformance suite
	"content":     {"parity", "seq"},
	"coord":       {"content", "des", "engine", "flight", "fluid", "metrics", "overlay", "parity", "schedule", "seq", "span", "transport"},
	"des":         nil,
	"disco":       {"gossip", "metrics"},
	"engine":      {"content", "des", "flight", "metrics", "overlay", "parity", "seq", "span"},
	"experiment":  {"coord", "gossip", "metrics", "span", "svgplot", "transport"},
	"flight":      nil,
	"fluid":       {"des"},
	"gossip":      {"des"},
	"live":        {"content", "des", "disco", "engine", "flight", "metrics", "overlay", "parity", "seq", "span", "transport", "wire"},
	"metrics":     nil,
	"overlay":     nil,
	"parity":      {"seq"},
	"schedule":    nil,
	"seq":         {"des", "wire"},
	"span":        nil,
	"svgplot":     nil,
	"transport":   {"des", "metrics", "wire"},
	"wire":        nil,
}

// clockFree are the packages that read no clock: the sequence algebra,
// the engine and the simulator run on the time they are handed.
var clockFree = []string{"content", "coord", "des", "engine", "fluid", "overlay", "parity", "schedule", "seq", "wire"}

func TestInternalPackages(t *testing.T) {
	tr := repo(t)
	var want []string
	for p := range internalImports {
		want = append(want, "internal/"+p)
	}
	sort.Strings(want)
	got := tr.internalPkgs()
	for _, d := range got {
		if _, ok := slices.BinarySearch(want, d); !ok {
			t.Errorf("%s is not a known package: add it to internalImports with the packages it may import", d)
		}
	}
	for _, d := range want {
		if _, ok := slices.BinarySearch(got, d); !ok {
			t.Errorf("%s is gone: take it out of internalImports", d)
		}
	}
}

// TestInternalImports holds every internal package to its row of
// internalImports, both ways: an import the row does not list fails, and
// so does a listed one no file makes.
func TestInternalImports(t *testing.T) {
	tr := repo(t)
	used := map[string]map[string]bool{}
	for _, f := range tr.prod(underInternal) {
		pkg := strings.TrimPrefix(f.dir, "internal/")
		allowed := internalImports[pkg]
		for _, s := range f.ast.Imports {
			p := importPath(s)
			if !strings.HasPrefix(p, module+"internal/") {
				continue
			}
			dep := strings.TrimPrefix(p, module+"internal/")
			if !slices.Contains(allowed, dep) {
				t.Errorf("%s: %s imports internal/%s, which internalImports does not allow it", tr.pos(s), pkg, dep)
			}
			if used[pkg] == nil {
				used[pkg] = map[string]bool{}
			}
			used[pkg][dep] = true
		}
	}
	for pkg, deps := range internalImports {
		for _, dep := range deps {
			if !used[pkg][dep] {
				t.Errorf("internalImports lets %s import %s, which it no longer does: take the edge out", pkg, dep)
			}
		}
	}
}

// importRule forbids one standard library import in one package.
type importRule struct {
	dir, path string
	tests     bool // the package's _test.go files too
	why       string
}

// forbiddenImports: the one event queue is des's own heap (in its tests
// too), the one wire codec is transport's binary one, and the clock-free
// packages import no clock.
func forbiddenImports() []importRule {
	rules := []importRule{
		{"internal/des", "container/heap", true, "the event queue is des's hand-written 4-ary heap"},
		{"internal/transport", "encoding/json", false, "the wire codec is transport's binary one"},
	}
	for _, p := range clockFree {
		rules = append(rules, importRule{"internal/" + p, "time", false, "the package runs on the time it is handed"})
	}
	return rules
}

func TestForbiddenImports(t *testing.T) {
	tr := repo(t)
	for _, r := range forbiddenImports() {
		for _, f := range tr.files {
			if f.dir != r.dir || f.test && !r.tests {
				continue
			}
			for _, s := range f.ast.Imports {
				if importPath(s) == r.path {
					t.Errorf("%s imports %s: %s", tr.pos(s), r.path, r.why)
				}
			}
		}
	}
}

// TestArchtestStandsAlone keeps these rules out of the build: the
// package holds only _test.go files and imports only the standard
// library.
func TestArchtestStandsAlone(t *testing.T) {
	tr := repo(t)
	for _, f := range tr.files {
		if f.dir != "internal/archtest" {
			continue
		}
		if !f.test {
			t.Errorf("%s: internal/archtest holds only _test.go files", f.path)
		}
		for _, s := range f.ast.Imports {
			if p := importPath(s); strings.Contains(strings.SplitN(p, "/", 2)[0], ".") || strings.HasPrefix(p, module) {
				t.Errorf("%s imports %s: internal/archtest imports only the standard library", tr.pos(s), p)
			}
		}
	}
}
