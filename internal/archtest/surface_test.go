package archtest

import (
	"go/ast"
	"slices"
	"sort"
	"testing"
)

// facade is the exported surface of p2pmss.go, sorted. A new export
// shows up here as a diff; the standalone live constructors
// (StartLivePeer, StartLiveLeaf) and the fabric's (WithFabric,
// NewFabric) stay out: StartLiveNodes is the one live assembler.
var facade = []string{
	"AMS", "Allocate", "Allocation", "Allocator", "Assembler", "BaselineRow",
	"Baselines", "Broadcast", "BurstParams", "Centralized", "Channel",
	"ChurnEvent", "ChurnSchedule", "Content", "ContentStore", "DCoP",
	"DataPlaneMode", "DebugHandler", "DefaultExperimentOptions",
	"DefaultSimConfig", "ExperimentOptions",
	"Figure10", "Figure11", "Figure12", "FlightSet", "LiveLeafSession",
	"LiveNodeCluster", "LiveNodesConfig", "LiveSessionConfig",
	"MetricsDebugMux", "MetricsRegistry", "NewAllocator", "NewAssembler",
	"NewContent", "NewContentStore", "NewFlightSet", "NewMetricsRegistry",
	"NewSpanCollector", "Observability", "PeerID", "PlaneFluid",
	"PlanePacket", "PrintBaselines", "PrintRateSeries", "PrintSeries",
	"ProportionalChannels", "Protocol", "Protocols", "QueueBlock",
	"QueueDropNewest", "Series", "SeriesCSV", "SimConfig", "SimResult",
	"Simulate", "SpanCollector", "StartLiveNodes", "TCoP",
	"TransportImpairment", "TransportQueuePolicy", "Unicast",
}

// exported lists the exported top-level names f declares, methods left
// out.
func exported(f *ast.File) []string {
	var out []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				out = append(out, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							out = append(out, id.Name)
						}
					}
				}
			}
		}
	}
	return out
}

func TestFacadeSurface(t *testing.T) {
	tr := repo(t)
	var got []string
	for _, f := range tr.prod(func(d string) bool { return d == "" }) {
		if f.path == "p2pmss.go" {
			got = exported(f.ast)
		}
	}
	for _, n := range got {
		if !slices.Contains(facade, n) {
			t.Errorf("p2pmss.go exports %s, which the facade list does not name", n)
		}
	}
	for _, n := range facade {
		if !slices.Contains(got, n) {
			t.Errorf("the facade list names %s, which p2pmss.go does not export", n)
		}
	}
	if !sort.StringsAreSorted(facade) {
		t.Error("keep the facade list sorted")
	}
}

// TestOneSessionHost: a live.Node is the only thing that builds a serving
// Peer or a Leaf, so non-test internal/live declares no standalone
// constructor or config for either.
func TestOneSessionHost(t *testing.T) {
	tr := repo(t)
	retired := []string{"NewPeer", "NewLeaf", "PeerConfig", "LeafConfig"}
	for _, f := range tr.prod(func(d string) bool { return d == "internal/live" }) {
		declaredNames(f.ast, func(id *ast.Ident) {
			if slices.Contains(retired, id.Name) {
				t.Errorf("%s: internal/live declares %s: only a Node builds a Peer or a Leaf", tr.pos(id), id.Name)
			}
		})
	}
}

// TestOneSweepPath: every figure aggregates the records runner
// (SweepRecords); internal/experiment has no second sweep loop.
func TestOneSweepPath(t *testing.T) {
	tr := repo(t)
	for _, f := range tr.files {
		if f.dir != "internal/experiment" {
			continue
		}
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "sweep" {
				t.Errorf("%s: a second sweep path; figures go through SweepRecords", tr.pos(fd))
			}
		}
	}
}
