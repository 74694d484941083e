package archtest

import (
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// checkedDocs are the documents whose code references must resolve.
// cmd/mssbench/README.md is left out: it describes the benchmark as it
// was recorded and changes only with the benchmark.
var checkedDocs = []string{
	"README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/METRICS.md", ".claude/skills/verify/SKILL.md",
}

// A document marks text about code that is gone (an audit note, a
// history paragraph) off between these two lines; the references in it
// are not checked.
const (
	historyBegin = "<!-- history -->"
	historyEnd   = "<!-- /history -->"
)

var (
	// pathRef is a path under internal/, and the package-level name after
	// it when the path is a package (internal/seq.Union).
	pathRef = regexp.MustCompile(`internal/([A-Za-z0-9_/*…{},-]|\.[a-z0-9])*(\.[A-Z][A-Za-z0-9_]*)?`)
	testRef = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*`)
	// pkgRef is pkg.Name or pkg.Name.Member, not inside a path or a
	// longer dotted name.
	pkgRef = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./-])([a-z]+)\.([A-Za-z_][A-Za-z0-9_]*)(?:\.([A-Za-z_][A-Za-z0-9_]*))?`)
	// benchRow is a row name of a checked-in BENCH_*.json file.
	benchRow = regexp.MustCompile(`"(Benchmark[A-Za-z0-9_]*)`)
	// fileExt are the suffixes that make pkg.Name a file name.
	fileExt = map[string]bool{"go": true, "json": true, "jsonl": true, "md": true, "bin": true, "txt": true, "svg": true, "csv": true, "golden": true, "out": true}
)

// codeSpan is the text of one inline code span or fenced block line and
// the line it starts on.
type codeSpan struct {
	text string
	line int
}

// codeSpans returns the code of a markdown document: fenced blocks line
// by line, and inline spans, which may run over the lines of a
// paragraph. Marked history blocks are left out.
func codeSpans(doc string) []codeSpan {
	var out []codeSpan
	var para []string
	paraLine := 0
	flush := func() {
		text := strings.Join(para, "\n")
		para = para[:0]
		for off := 0; ; {
			i := strings.IndexByte(text[off:], '`')
			if i < 0 {
				return
			}
			i += off
			n := 1
			for i+n < len(text) && text[i+n] == '`' {
				n++
			}
			j := strings.Index(text[i+n:], text[i:i+n])
			if j < 0 {
				return
			}
			out = append(out, codeSpan{text[i+n : i+n+j], paraLine + strings.Count(text[:i], "\n")})
			off = i + n + j + n
		}
	}
	fenced, history := false, false
	for i, l := range strings.Split(doc, "\n") {
		trimmed := strings.TrimSpace(l)
		if !fenced && (trimmed == "" || trimmed == historyBegin || trimmed == historyEnd || strings.HasPrefix(trimmed, "```")) {
			flush()
		}
		switch {
		case trimmed == historyBegin:
			history = true
		case trimmed == historyEnd:
			history = false
		case history:
		case strings.HasPrefix(trimmed, "```"):
			fenced = !fenced
		case fenced:
			out = append(out, codeSpan{l, i + 1})
		case trimmed != "":
			if len(para) == 0 {
				paraLine = i + 1
			}
			para = append(para, l)
		}
	}
	flush()
	return out
}

// symbols is what a package declares, in any of its files: top-level
// names, and the names of methods, struct fields and interface methods.
type symbols struct{ top, member map[string]bool }

func (tr *tree) symbols() map[string]symbols {
	out := map[string]symbols{}
	for _, f := range tr.files {
		if !underInternal(f.dir) {
			continue
		}
		pkg := f.dir[len("internal/"):]
		s, ok := out[pkg]
		if !ok {
			s = symbols{map[string]bool{}, map[string]bool{}}
			out[pkg] = s
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					s.top[d.Name.Name] = true
				} else {
					s.member[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						s.top[sp.Name.Name] = true
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							s.top[id.Name] = true
						}
					}
				}
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if fl, ok := n.(*ast.Field); ok {
				for _, id := range fl.Names {
					s.member[id.Name] = true
				}
			}
			return true
		})
	}
	return out
}

// testNames are the Test, Benchmark and Fuzz functions of every test
// file, and the rows of the checked-in BENCH_*.json files (which hold
// the parent commit's run renamed BenchmarkParent…).
func (tr *tree) testNames() []string {
	var out []string
	benches, _ := filepath.Glob(filepath.Join(tr.root, "BENCH_*.json"))
	for _, b := range benches {
		text, _ := os.ReadFile(b)
		for _, m := range benchRow.FindAllSubmatch(text, -1) {
			out = append(out, string(m[1]))
		}
	}
	for _, f := range tr.files {
		if !f.test {
			continue
		}
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && testRef.MatchString(fd.Name.Name) {
				out = append(out, fd.Name.Name)
			}
		}
	}
	return out
}

// TestDocsNameExistingCode: every internal/… path, Test/Benchmark/Fuzz
// name and pkg.Name of an internal package that the checked documents
// write as code resolves in the tree. A path up to *, … or { resolves as
// a prefix, and so does a test name in a command (go test's -run and
// -bench patterns and benchjson's names match prefixes) or followed by
// a pattern character. A dotted name with an underscore is a metric,
// not Go.
func TestDocsNameExistingCode(t *testing.T) {
	tr := repo(t)
	syms := tr.symbols()
	tests := tr.testNames()
	pattern := func(span, rest string) bool {
		for _, cmd := range []string{"-run", "-bench", "-fuzz", "benchjson"} {
			if strings.Contains(span, cmd) {
				return true
			}
		}
		return rest != "" && strings.ContainsRune("*…({[|'\"=", []rune(rest)[0])
	}
	for _, doc := range checkedDocs {
		text, err := tr.readFile(doc)
		if err != nil {
			t.Error(err)
			continue
		}
		for _, span := range codeSpans(text) {
			at := func(i int) string {
				return doc + ":" + strconv.Itoa(span.line+strings.Count(span.text[:i], "\n"))
			}
			for _, m := range pathRef.FindAllStringSubmatchIndex(span.text, -1) {
				p, name := span.text[m[0]:m[1]], ""
				if m[4] >= 0 {
					p, name = span.text[m[0]:m[4]], span.text[m[4]+1:m[5]]
				}
				if !tr.pathExists(p) {
					t.Errorf("%s: `%s` names no file or directory", at(m[0]), p)
				} else if s, ok := syms[strings.TrimPrefix(p, "internal/")]; name != "" && (!ok || !s.top[name]) {
					t.Errorf("%s: `%s.%s`: %s declares no %s", at(m[0]), p, name, p, name)
				}
			}
			for _, m := range testRef.FindAllStringIndex(span.text, -1) {
				name, rest := span.text[m[0]:m[1]], span.text[m[1]:]
				found := false
				for _, n := range tests {
					if n == name || pattern(span.text, rest) && strings.HasPrefix(n, name) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%s: `%s` names no test, benchmark or fuzz target", at(m[0]), name)
				}
			}
			for _, m := range pkgRef.FindAllStringSubmatchIndex(span.text, -1) {
				pkg := span.text[m[2]:m[3]]
				s, ok := syms[pkg]
				name := span.text[m[4]:m[5]]
				if !ok || fileExt[name] || strings.Contains(name, "_") {
					continue
				}
				if !s.top[name] && !s.member[name] {
					t.Errorf("%s: `%s.%s`: internal/%s declares no %s", at(m[2]), pkg, name, pkg, name)
					continue
				}
				if m[6] >= 0 {
					if member := span.text[m[6]:m[7]]; !s.member[member] && !fileExt[member] && !strings.Contains(member, "_") {
						t.Errorf("%s: `%s.%s.%s`: internal/%s declares no method or field %s", at(m[2]), pkg, name, member, pkg, member)
					}
				}
			}
		}
	}
}

// pathExists reports whether p, a slash path from the root, names a file
// or a directory; up to a *, … or { it is a prefix of one.
func (tr *tree) pathExists(p string) bool {
	if i := strings.IndexAny(p, "*…{"); i >= 0 {
		prefix := p[:i]
		dir, base := filepath.Split(filepath.FromSlash(prefix))
		entries, err := os.ReadDir(filepath.Join(tr.root, dir))
		if err != nil {
			return false
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), base) {
				return true
			}
		}
		return false
	}
	_, err := os.Stat(filepath.Join(tr.root, filepath.FromSlash(p)))
	return err == nil
}
