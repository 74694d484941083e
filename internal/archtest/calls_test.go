package archtest

import (
	"go/ast"
	"strings"
	"testing"
)

// forbiddenRefs lists package-level functions that non-test code under
// internal/ does not reference: every seeded stream there is a
// des.Source (splitmix64, O(1) seeding), and nothing polls the wall
// clock by sleeping.
var forbiddenRefs = []struct{ path, name, why string }{
	{"math/rand", "NewSource", "seed a stream with des.NewRand"},
	{"time", "Sleep", "wait on a signal, a timer or a protocol point, not a sleep"},
}

func TestForbiddenRefs(t *testing.T) {
	tr := repo(t)
	for _, r := range forbiddenRefs {
		for _, f := range tr.prod(underInternal) {
			selectorRefs(f.ast, r.path, r.name, func(n ast.Node) {
				t.Errorf("%s references %s.%s: %s", tr.pos(n), r.path, r.name, r.why)
			})
		}
	}
}

// TestOnePoolPerSimulatedRun: the simulator drives a run's peers from
// one goroutine and builds every one of them from the run's
// engine.Pool, so non-test internal/coord does not reference
// engine.NewPeer, which gives a peer a pool of its own.
func TestOnePoolPerSimulatedRun(t *testing.T) {
	tr := repo(t)
	for _, f := range tr.prod(func(d string) bool { return d == "internal/coord" }) {
		selectorRefs(f.ast, "p2pmss/internal/engine", "NewPeer", func(n ast.Node) {
			t.Errorf("%s references engine.NewPeer: build a simulated peer from the run's engine.Pool", tr.pos(n))
		})
	}
}

// TestOneFreeList: des.FreeList is the one free list of pooled records,
// carving them in blocks, and des.Slab the one slab of carved slices.
// The copies it replaced were a package-level generic take, popping a
// []*T and making a new record when empty, in internal/engine and in
// internal/coord; no non-test file outside internal/des declares a
// function of that name again.
func TestOneFreeList(t *testing.T) {
	tr := repo(t)
	for _, f := range tr.prod(func(d string) bool { return d != "internal/des" }) {
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "take" {
				t.Errorf("%s declares take: take pooled records from a des.FreeList", tr.pos(fd))
			}
		}
	}
}

// deprecatedMarker is godoc's deprecation paragraph, spelled in two parts
// so that this file holds no such comment itself.
const deprecatedMarker = "Deprecated" + ":"

// TestNoCompatibilityAliases: an API change renames at its call sites;
// no Go file keeps an old spelling marked as deprecated.
func TestNoCompatibilityAliases(t *testing.T) {
	tr := repo(t)
	for _, f := range tr.files {
		for _, cg := range f.ast.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, deprecatedMarker) {
					t.Errorf("%s: a compatibility alias (%s comment)", tr.pos(c), deprecatedMarker)
				}
			}
		}
	}
}
