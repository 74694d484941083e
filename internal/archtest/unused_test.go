package archtest

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// keep lists the exported functions under internal/ that no program
// calls and that stay, each with its reason.
var keep = map[string]string{
	"seq.Sequence.Prefix":       "§2's pkt⟨t], the algebra the paper's protocols are written in",
	"seq.Sequence.Postfix":      "§2's pkt[t⟩, the algebra the paper's protocols are written in",
	"seq.Intersect":             "§2's pkt_i ∩ pkt_j, the algebra the paper's protocols are written in; the algebra's tests check Union against it",
	"seq.Equal":                 "test-support API: the engine's, live's and coord's tests compare sequences packet identity by packet identity with it",
	"seq.NewParity":             "test-support API: the content, engine, live and parity tests build a parity packet from its covers with it, outside any arena",
	"flight.FirstDivergence":    "test-support API: the conformance and coord tests diff a simulated and a live flight log with it",
	"disco.Catalog.WaitContent": "test-support API: disco's and live's tests wait on the directory's change signal for a content's holders with it, where a poll would sleep",
}

// stdlibMethods are method names the standard library calls through an
// interface the tree never calls itself (fmt.Stringer, fmt.GoStringer,
// error, heap.Interface, sort.Interface, json.Marshaler, http.Handler,
// rand.Source64, io.Reader, io.Writer, io.Closer), so a method of one of
// these names has a caller whether or not the tree names it.
var stdlibMethods = []string{
	"String", "GoString", "Error", "Unwrap", "Len", "Less", "Swap", "Push", "Pop",
	"MarshalJSON", "UnmarshalJSON", "ServeHTTP", "Int63", "Uint64", "Seed", "Read", "Write", "Close",
}

// TestExportedFuncsHaveCallers: every exported function or method under
// internal/ is referenced, outside its own declaration, by non-test code
// of the root module or of cmd/mssbench. References are resolved by type,
// so a field, a local or another type's method of the same name is no
// caller; a method counts as called when it implements an interface
// method that is called, and a method the standard library calls
// through an interface is named in stdlibMethods. A function only tests
// call moves into the tests that call it, or is deleted.
func TestExportedFuncsHaveCallers(t *testing.T) {
	tr := repo(t)
	info, err := tr.typeCheck()
	if err != nil {
		t.Fatal(err)
	}
	refs := map[*types.Func][]token.Pos{}
	var ifaceCalls []*types.Func // the interface methods non-test code calls
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		refs[fn.Origin()] = append(refs[fn.Origin()], id.Pos())
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			ifaceCalls = append(ifaceCalls, fn)
		}
	}
	kept := map[string]bool{}
	for _, f := range tr.prod(underInternal) {
		pkg := f.dir[len("internal/"):]
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue // the file is left out of the build by its constraints
			}
			key := pkg + "." + fd.Name.Name
			if fd.Recv != nil {
				key = pkg + "." + recvType(fd.Recv) + "." + fd.Name.Name
			}
			used := fd.Recv != nil && (slices.Contains(stdlibMethods, fn.Name()) || implementsCalled(fn, ifaceCalls))
			for _, p := range refs[fn] {
				if p < fd.Pos() || p >= fd.End() {
					used = true
					break
				}
			}
			_, keeping := keep[key]
			kept[key] = keeping
			switch {
			case keeping && used:
				t.Errorf("%s %s has a caller now: take it out of keep", tr.pos(fd), key)
			case !keeping && !used:
				t.Errorf("%s %s has no caller outside tests: move it into the tests that use it, or delete it", tr.pos(fd), key)
			}
		}
	}
	for k := range keep {
		if !kept[k] {
			t.Errorf("keep lists %s, which is gone: take it out", k)
		}
	}
}

// implementsCalled reports whether method m's receiver type implements
// the interface of one of the called interface methods of m's name. A
// generic receiver, which types.Implements does not judge, implements
// any interface whose method of that name is called.
func implementsCalled(m *types.Func, calls []*types.Func) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, _ := recv.(*types.Named)
	for _, c := range calls {
		if c.Name() != m.Name() {
			continue
		}
		if named == nil || named.TypeParams().Len() > 0 {
			return true
		}
		iface := c.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// typeCheck type-checks the non-test code of every package directory of
// the tree, its files chosen by go/build's default context as go build
// chooses them, and returns the uses and definitions it resolved. The
// tree's own packages are checked from source; the standard library
// comes from its export data.
func (tr *tree) typeCheck() (*types.Info, error) {
	byPath := map[string]*ast.File{}
	var dirs []string
	for _, f := range tr.prod(func(string) bool { return true }) {
		byPath[f.path] = f.ast
		if !slices.Contains(dirs, f.dir) {
			dirs = append(dirs, f.dir)
		}
	}
	im := &srcImporter{
		tr: tr, byPath: byPath, std: importer.Default(),
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
		done: map[string]*types.Package{},
	}
	for _, dir := range dirs {
		if _, err := im.Import(path.Join(module, dir)); err != nil {
			return nil, err
		}
	}
	return im.info, nil
}

// srcImporter type-checks the tree's packages from their parsed files,
// once each, into one types.Info, and imports any other path through
// std.
type srcImporter struct {
	tr     *tree
	byPath map[string]*ast.File
	std    types.Importer
	info   *types.Info
	done   map[string]*types.Package
}

func (im *srcImporter) Import(p string) (*types.Package, error) {
	// The tree's import paths are its directories under module (that of
	// cmd/mssbench's own module too).
	dir, ours := strings.CutPrefix(p+"/", module)
	if !ours {
		return im.std.Import(p)
	}
	dir = strings.TrimSuffix(dir, "/")
	if pkg, ok := im.done[p]; ok {
		return pkg, nil
	}
	bp, err := build.Default.ImportDir(filepath.Join(im.tr.root, filepath.FromSlash(dir)), 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		files = append(files, im.byPath[path.Join(dir, name)])
	}
	conf := types.Config{Importer: im}
	pkg, err := conf.Check(p, im.tr.fset, files, im.info)
	if err != nil {
		return nil, err
	}
	im.done[p] = pkg
	return pkg, nil
}

func recvType(fl *ast.FieldList) string {
	x := fl.List[0].Type
	if s, ok := x.(*ast.StarExpr); ok {
		x = s.X
	}
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.IndexExpr:
		return x.X.(*ast.Ident).Name
	case *ast.IndexListExpr:
		return x.X.(*ast.Ident).Name
	}
	return "?"
}
