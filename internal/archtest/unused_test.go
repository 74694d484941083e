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
	"sync"
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
	info := tr.types(t)
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

// keepFields lists the exported config fields under internal/ that no
// program sets and that stay, each with its reason.
var keepFields = map[string]string{
	"coord.Config.FirstFanout":         "model parameter: DESIGN.md §2's H−1 (prose) against H (pseudocode) for a leaf-selected peer's fanout; the coord tests run both",
	"coord.Config.LeafMaxRate":         "model parameter: the leaf's maximum receipt rate ρ_s, §3.1's buffer overrun; the coord tests overrun it",
	"coord.Config.LeafBuffer":          "model parameter: the leaf buffer behind LeafMaxRate; the coord tests overrun it",
	"coord.Config.CrashPeers":          "model parameter: crash-stop failure before the run (DESIGN.md §3); the coord tests crash peers with it",
	"coord.Config.Bandwidths":          "model parameter: §2's heterogeneous time-slot allocation (DESIGN.md §3); the coord tests vary it",
	"coord.Config.Repair":              "model parameter: the leaf's retransmission protocol (DESIGN.md §9); the coord tests run it",
	"coord.Config.RepairInterval":      "model parameter: Repair's stall window (DESIGN.md §9); the coord tests vary it",
	"flight.DiffOptions.IncludeTimers": "test-support API of flight.FirstDivergence, which keep lists",
	"flight.DiffOptions.Session":       "test-support API of flight.FirstDivergence, which keep lists",
	"live.NodesConfig.MaxSessions":     "forwards NodeConfig.MaxSessions, a node's admission budget; TestNodeAdmissionBudget sets it through StartNodes",
	"live.NodesConfig.ReapAfter":       "forwards NodeConfig.ReapAfter, which cmd/mssbench sets on its nodes; live's tests set it through StartNodes",
}

// TestConfigFieldsHaveSetters: every exported field of an exported
// struct type under internal/ whose name ends in Config or Options is
// written by non-test code of the root module or of cmd/mssbench. A
// keyed composite literal writes the fields it names and an unkeyed one
// all of its fields; an assignment or ++/-- writes every field of the
// selector chain it stores through, and &x.F writes F. An assignment
// inside an if or switch whose condition or tag reads the field is the
// field's default, not a setting. A field no program sets is deleted,
// or listed in keepFields with a reason.
func TestConfigFieldsHaveSetters(t *testing.T) {
	tr := repo(t)
	info := tr.types(t)
	type field struct {
		id  *ast.Ident
		key string // pkg.Type.Field
	}
	fields := map[*types.Var]field{}
	for _, f := range tr.prod(underInternal) {
		pkg := f.dir[len("internal/"):]
		for _, d := range f.ast.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, s := range gd.Specs {
				ts := s.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() ||
					!strings.HasSuffix(ts.Name.Name, "Config") && !strings.HasSuffix(ts.Name.Name, "Options") {
					continue
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						if v, ok := info.Defs[id].(*types.Var); ok && id.IsExported() {
							fields[v] = field{id, pkg + "." + ts.Name.Name + "." + id.Name}
						}
					}
				}
			}
		}
	}
	set := map[*types.Var]bool{}
	for _, f := range tr.prod(func(string) bool { return true }) {
		fieldWrites(f.ast, info, func(v *types.Var) { set[v.Origin()] = true })
	}
	declared := map[string]bool{}
	for v, f := range fields {
		_, keeping := keepFields[f.key]
		declared[f.key] = true
		switch {
		case keeping && set[v]:
			t.Errorf("%s %s has a setter now: take it out of keepFields", tr.pos(f.id), f.key)
		case !keeping && !set[v]:
			t.Errorf("%s %s is set by no program: delete it, or keep it with a reason", tr.pos(f.id), f.key)
		}
	}
	for k := range keepFields {
		if !declared[k] {
			t.Errorf("keepFields lists %s, which is gone: take it out", k)
		}
	}
}

// fieldWrites calls write with every struct field f's code writes (see
// TestConfigFieldsHaveSetters).
func fieldWrites(f *ast.File, info *types.Info, write func(*types.Var)) {
	var stack []ast.Node // the enclosing nodes of the one visited
	store := func(x ast.Expr) {
		for _, v := range selected(info, x) {
			if !isDefault(stack, info, v) {
				write(v)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CompositeLit:
			st := structOf(info.Types[n].Type)
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
							write(v)
						}
					}
				} else if st != nil {
					write(st.Field(i))
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				store(lhs)
			}
		case *ast.IncDecStmt:
			store(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
					if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
						write(v)
					}
				}
			}
		}
		return true
	})
}

// structOf returns the struct type of a composite literal's type, seen
// through a pointer (an elided &T), or nil.
func structOf(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// selected returns the fields of the selector chain x stores through:
// a.B.C[i] = v writes B and C.
func selected(info *types.Info, x ast.Expr) []*types.Var {
	var out []*types.Var
	for {
		switch e := x.(type) {
		case *ast.ParenExpr:
			x = e.X
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.SelectorExpr:
			if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.IsField() {
				out = append(out, v)
			}
			x = e.X
		default:
			return out
		}
	}
}

// isDefault reports whether the statement on top of stack sits in an if
// or switch, within its function, whose condition, tag or case reads
// field v.
func isDefault(stack []ast.Node, info *types.Info, v *types.Var) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		var conds []ast.Expr
		switch n := stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return false
		case *ast.IfStmt:
			conds = []ast.Expr{n.Cond}
		case *ast.SwitchStmt:
			conds = []ast.Expr{n.Tag}
		case *ast.CaseClause:
			conds = n.List
		}
		for _, c := range conds {
			if c != nil && reads(info, c, v) {
				return true
			}
		}
	}
	return false
}

// reads reports whether expression x refers to field v.
func reads(info *types.Info, x ast.Expr, v *types.Var) bool {
	found := false
	ast.Inspect(x, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == v {
			found = true
		}
		return !found
	})
	return found
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

var (
	checkOnce sync.Once
	checked   *types.Info
	checkErr  error
)

// types type-checks the tree once per test binary, as repo parses it
// once, so the rules that resolve names share one check.
func (tr *tree) types(t *testing.T) *types.Info {
	t.Helper()
	checkOnce.Do(func() { checked, checkErr = tr.typeCheck() })
	if checkErr != nil {
		t.Fatal(checkErr)
	}
	return checked
}

// typeCheck type-checks the non-test code of every package directory of
// the tree, its files chosen by go/build's default context as go build
// chooses them, and returns the uses, definitions and expression types
// it resolved. The tree's own packages are checked from source; the
// standard library comes from its export data.
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
		info: &types.Info{
			Uses:  map[*ast.Ident]types.Object{},
			Defs:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
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
