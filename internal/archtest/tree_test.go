// Package archtest states the repository's architecture as tests: which
// internal packages exist and what each may import, which calls and
// declarations stay out of which files, the facade's exported surface,
// that every exported function has a caller and every config field a
// setter, and that the docs name only code that exists. It parses the source with go/parser, type-checks it
// with go/types where a rule resolves names, and runs none of it, so it
// is part of every `go test ./...`.
//
// A rule that fails names the file and line. When the change is intended
// (a new package, a new facade export, a new import edge), the fix is an
// edit to the rule's table here, which shows up in review.
package archtest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// srcFile is one parsed Go file of the repository.
type srcFile struct {
	path string // slash-separated, relative to the repository root
	dir  string // the package directory, relative to the root ("" for the root package)
	test bool   // a _test.go file
	ast  *ast.File
}

// tree is the parsed repository: the root module and cmd/mssbench, which
// is its own module but imports the root's internal packages.
type tree struct {
	root  string
	fset  *token.FileSet
	files []*srcFile
}

var (
	loadOnce sync.Once
	loaded   *tree
	loadErr  error
)

// repo parses every Go file under the repository root once per test
// binary, skipping testdata and dot directories.
func repo(t *testing.T) *tree {
	t.Helper()
	loadOnce.Do(func() { loaded, loadErr = load() })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loaded
}

func load() (*tree, error) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		return nil, err
	}
	tr := &tree{root: root, fset: token.NewFileSet()}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(tr.fset, p, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		dir := filepath.ToSlash(filepath.Dir(rel))
		if dir == "." {
			dir = ""
		}
		tr.files = append(tr.files, &srcFile{
			path: rel, dir: dir, test: strings.HasSuffix(rel, "_test.go"), ast: f,
		})
		return nil
	})
	return tr, err
}

// pos renders a node's position as path:line relative to the root.
func (tr *tree) pos(n ast.Node) string {
	p := tr.fset.Position(n.Pos())
	rel, err := filepath.Rel(tr.root, p.Filename)
	if err != nil {
		rel = p.Filename
	}
	return filepath.ToSlash(rel) + ":" + strconv.Itoa(p.Line)
}

// prod returns the non-test files of the package directories that match
// keep.
func (tr *tree) prod(keep func(dir string) bool) []*srcFile {
	var out []*srcFile
	for _, f := range tr.files {
		if !f.test && keep(f.dir) {
			out = append(out, f)
		}
	}
	return out
}

// internalPkgs lists the package directories under internal/, sorted.
func (tr *tree) internalPkgs() []string {
	seen := map[string]bool{}
	for _, f := range tr.files {
		if underInternal(f.dir) {
			seen[f.dir] = true
		}
	}
	out := make([]string, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

func underInternal(dir string) bool { return strings.HasPrefix(dir, "internal/") }

// importPath returns an import spec's path without quotes.
func importPath(s *ast.ImportSpec) string { return strings.Trim(s.Path.Value, `"`) }

// localName is the name a file refers to an import by.
func localName(s *ast.ImportSpec) string {
	if s.Name != nil {
		return s.Name.Name
	}
	p := importPath(s)
	return p[strings.LastIndex(p, "/")+1:]
}

// selectorRefs reports every reference pkg.name in f, called or not,
// where pkg is the local name f imports path under.
func selectorRefs(f *ast.File, path, name string, report func(ast.Node)) {
	local := ""
	for _, s := range f.Imports {
		if importPath(s) == path {
			local = localName(s)
		}
	}
	if local == "" {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
				report(sel)
			}
		}
		return true
	})
}

// declaredNames calls visit with every name f declares at the top level
// or as a method, struct field, interface method or parameter.
func declaredNames(f *ast.File, visit func(id *ast.Ident)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			visit(n.Name)
		case *ast.TypeSpec:
			visit(n.Name)
		case *ast.ValueSpec:
			for _, id := range n.Names {
				visit(id)
			}
		case *ast.Field:
			for _, id := range n.Names {
				visit(id)
			}
		}
		return true
	})
}

// readFile reads a file relative to the repository root.
func (tr *tree) readFile(rel string) (string, error) {
	b, err := os.ReadFile(filepath.Join(tr.root, filepath.FromSlash(rel)))
	return string(b), err
}
