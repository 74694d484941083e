package archtest

import (
	"go/ast"
	"go/token"
	"slices"
	"testing"
)

// keep lists the exported functions under internal/ that no program
// calls and that stay, each with its reason.
var keep = map[string]string{
	"seq.Sequence.Prefix":       "§2's pkt⟨t], the algebra the paper's protocols are written in",
	"seq.Sequence.Postfix":      "§2's pkt[t⟩, the algebra the paper's protocols are written in",
	"seq.Intersect":             "§2's pkt_i ∩ pkt_j, the algebra the paper's protocols are written in; the algebra's tests check Union against it",
	"flight.FirstDivergence":    "test-support API: the conformance and coord tests diff a simulated and a live flight log with it",
	"disco.Catalog.WaitContent": "test-support API: disco's and live's tests wait on the directory's change signal for a content's holders with it, where a poll would sleep",
}

// stdlibMethods are method names the standard library calls through an
// interface (fmt.Stringer, fmt.GoStringer, error, heap.Interface,
// sort.Interface, json.Marshaler, http.Handler, rand.Source64, io.Reader,
// io.Writer, io.Closer), so a method of one of these names has a caller
// whether or not the tree names it.
var stdlibMethods = []string{
	"String", "GoString", "Error", "Unwrap", "Len", "Less", "Swap", "Push", "Pop",
	"MarshalJSON", "UnmarshalJSON", "ServeHTTP", "Int63", "Uint64", "Seed", "Read", "Write", "Close",
}

// TestExportedFuncsHaveCallers: every exported function or method under
// internal/ is referenced, outside its own declaration, by non-test code
// of the root module or of cmd/mssbench. The match is by name, so the
// rule can miss an unused function (one sharing a used one's name); a
// method the standard library calls through an interface is named in
// stdlibMethods. A function only tests call moves into the tests that
// call it, or is deleted.
func TestExportedFuncsHaveCallers(t *testing.T) {
	tr := repo(t)
	type decl struct {
		name, key, at string
		method        bool
		from, to      token.Pos // the declaration, body included
	}
	var decls []decl
	refs := map[string][]token.Pos{}
	for _, f := range tr.prod(func(string) bool { return true }) {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				refs[id.Name] = append(refs[id.Name], id.Pos())
			}
			return true
		})
		if !underInternal(f.dir) {
			continue
		}
		pkg := f.dir[len("internal/"):]
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			key := pkg + "." + fd.Name.Name
			if fd.Recv != nil {
				key = pkg + "." + recvType(fd.Recv) + "." + fd.Name.Name
			}
			decls = append(decls, decl{fd.Name.Name, key, tr.pos(fd), fd.Recv != nil, fd.Pos(), fd.End()})
		}
	}
	kept := map[string]bool{}
	for _, d := range decls {
		used := d.method && slices.Contains(stdlibMethods, d.name)
		for _, p := range refs[d.name] {
			if p < d.from || p >= d.to {
				used = true
				break
			}
		}
		_, keeping := keep[d.key]
		kept[d.key] = keeping
		switch {
		case keeping && used:
			t.Errorf("%s %s has a caller now: take it out of keep", d.at, d.key)
		case !keeping && !used:
			t.Errorf("%s %s has no caller outside tests: move it into the tests that use it, or delete it", d.at, d.key)
		}
	}
	for k := range keep {
		if !kept[k] {
			t.Errorf("keep lists %s, which is gone: take it out", k)
		}
	}
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
