package archtest

import (
	"go/ast"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestOneSequenceRepresentation: internal/seq is the §2 algebra over one
// representation, a Sequence of Packets, with a Set for identity lookups
// and an Arena for identity nodes. A second representation (an interned
// table, say) is a new file or a new type here.
func TestOneSequenceRepresentation(t *testing.T) {
	tr := repo(t)
	wantFiles := []string{"ident.go", "seq.go", "set.go", "wire.go"}
	wantTypes := []string{"Arena", "Kind", "Packet", "Sequence", "Set"}
	var files, types []string
	for _, f := range tr.prod(func(d string) bool { return d == "internal/seq" }) {
		files = append(files, f.path[len("internal/seq/"):])
		for _, d := range f.ast.Decls {
			if g, ok := d.(*ast.GenDecl); ok {
				for _, s := range g.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok && ts.Name.IsExported() {
						types = append(types, ts.Name.Name)
					}
				}
			}
		}
	}
	sort.Strings(files)
	sort.Strings(types)
	if !slices.Equal(files, wantFiles) {
		t.Errorf("internal/seq files %v, want %v", files, wantFiles)
	}
	if !slices.Equal(types, wantTypes) {
		t.Errorf("internal/seq exported types %v, want %v", types, wantTypes)
	}
}

// retiredDriverNames are the per-driver copies of the transmitter
// schedule and the leaf repair policy that engine.Stream,
// parity.LossDetector and engine.Leaf replaced. No Go file declares or
// uses an identifier of these names.
var retiredDriverNames = []string{
	"planShare", "pendingHandoff", "installHandoffLocked", "applyPendingLocked", "mergeLocked",
	"afterActivate", "afterMerge", "quietChecks", "lastProgress", "repairRounds", "repairFirst",
	"repairTargets", "RepairMaxRounds", "requestLoop", "repairLoop", "repairCheck",
	"startRequests", "leafRand", "slotLocked", "senderLocked",
}

// TestOneTransmitterAndLeafPolicy: engine.Stream applies every hand-off,
// parity.LossDetector decides stalls and repair targets, and engine.Leaf
// selects, fails over, re-sends and dispatches repairs. The drivers hold
// one of each and keep no copy.
func TestOneTransmitterAndLeafPolicy(t *testing.T) {
	tr := repo(t)
	for _, f := range tr.files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && slices.Contains(retiredDriverNames, id.Name) {
				t.Errorf("%s: %s is a retired per-driver copy of the transmitter or the leaf policy", tr.pos(id), id.Name)
			}
			return true
		})
	}

	file := func(path string) *srcFile {
		for _, f := range tr.files {
			if f.path == path {
				return f
			}
		}
		t.Fatalf("%s is gone: point this rule at the file that replaced it", path)
		return nil
	}
	// The stream merges by position and identity, never by a key map.
	stream := file("internal/engine/stream.go")
	ast.Inspect(stream.ast, func(n ast.Node) bool {
		if m, ok := n.(*ast.MapType); ok {
			t.Errorf("%s: engine.Stream keeps no map", tr.pos(m))
		}
		return true
	})
	// The sim leaf, the engine leaf and the loss detector compare packets
	// structurally, building no identity key string.
	for _, path := range []string{"internal/engine/stream.go", "internal/coord/dataplane.go", "internal/engine/leaf.go", "internal/parity/loss.go"} {
		ast.Inspect(file(path).ast, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if sel, ok := c.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Key" && len(c.Args) == 0 {
					t.Errorf("%s: builds an identity key (.Key())", tr.pos(c))
				}
			}
			return true
		})
	}
	// The sim transmitter asks the network about crashes through the
	// send path, not by reading its crash flags.
	ast.Inspect(file("internal/coord/dataplane.go").ast, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "crashed" {
			t.Errorf("%s: the transmitter reads the network's crash flags", tr.pos(sel))
		}
		return true
	})
	// The sim transmitter applies no merge of its own.
	for _, d := range file("internal/coord/dataplane.go").ast.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && recvType(fd.Recv) == "transmitter" && strings.EqualFold(fd.Name.Name, "merge") {
			t.Errorf("%s: transmitter.%s: merges go through engine.Stream", tr.pos(fd), fd.Name.Name)
		}
	}

	// One schedule per driver: outside internal/engine exactly the sim
	// transmitter and the live serving peer hold an engine.Stream.
	var holders []string
	for _, f := range tr.prod(func(d string) bool { return underInternal(d) && d != "internal/engine" }) {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Stream" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "engine" {
					holders = append(holders, f.path)
				}
			}
			return true
		})
	}
	if want := []string{"internal/coord/dataplane.go", "internal/live/live.go"}; !slices.Equal(holders, want) {
		t.Errorf("engine.Stream is held in %v, want once in each of %v", holders, want)
	}
	// One leaf per driver, and one loss detector per leaf's assembler.
	calls := func(path, name string) []string {
		var at []string
		for _, f := range tr.prod(func(string) bool { return true }) {
			selectorRefs(f.ast, module+path, name, func(n ast.Node) { at = append(at, f.path) })
		}
		return at
	}
	if got, want := calls("internal/engine", "NewLeaf"), []string{"internal/coord/driver.go", "internal/live/leaf.go"}; !slices.Equal(got, want) {
		t.Errorf("engine.NewLeaf is called from %v, want once from each of %v", got, want)
	}
	if got, want := calls("internal/parity", "NewLossDetector"), []string{"internal/content/content.go"}; !slices.Equal(got, want) {
		t.Errorf("parity.NewLossDetector is called from %v, want only from the assembler in %v", got, want)
	}
}

// retiredLinkNames are the simulator's private Gilbert–Elliott channel
// and the impairer's fixed-length burst that transport.Link replaced.
var retiredLinkNames = []string{"burstChannel", "BurstLen", "burstLeft"}

// TestOneLinkModel: every loss verdict, simulated or live, comes from a
// transport.Link on its link's own stream, and Gilbert–Elliott is the
// one burst model. No Go file names a retired model, and no function of
// non-test internal/coord both reads a loss setting (LossProb, Burst)
// and draws from a stream: a loss draw on the engine's stream would.
func TestOneLinkModel(t *testing.T) {
	tr := repo(t)
	for _, f := range tr.files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && slices.Contains(retiredLinkNames, id.Name) {
				t.Errorf("%s: %s is a retired loss model; use transport.Link", tr.pos(id), id.Name)
			}
			return true
		})
	}
	for _, f := range tr.prod(func(d string) bool { return d == "internal/coord" }) {
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var loss, draw ast.Node
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					switch sel.Sel.Name {
					case "LossProb", "Burst":
						loss = sel
					case "Rand", "Float64", "Intn":
						draw = sel
					}
				}
				return true
			})
			if loss != nil && draw != nil {
				t.Errorf("%s: %s reads a loss setting and draws from a stream; a link's loss verdicts come from transport.Link", tr.pos(draw), fd.Name.Name)
			}
		}
	}
}
