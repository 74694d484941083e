package live

import (
	"testing"
	"time"

	"p2pmss/internal/content"
	"p2pmss/internal/engine"
	"p2pmss/internal/transport"
)

// Regression for the §3.3 lifetime fanout cap in the live runtime: under
// DCoP with a small H, redundant selection makes a merged peer re-select
// on every merge, and before the shared engine the live layer would take
// fresh children each time, unbounded. Every peer must end with at most
// H children over its whole lifetime — and delivery must still complete.
func TestLiveDCoPChildrenCapSmallH(t *testing.T) {
	data := randomData(3000, 17)
	const capH = 2
	nodes, leafNode := hostNodes(t, 7, storeOf(content.New("capped", data, 64)),
		NodeConfig{H: capH, Interval: 2, Delta: 5 * time.Millisecond, Protocol: engine.DCoP, Seed: 1},
		onFabric(transport.NewFabric()))
	sc := movieSession(data, 64, 99)
	sc.ContentID = "capped"
	leaf := open(t, leafNode, sc)
	waitExact(t, leaf, data, 20*time.Second)
	for i, p := range servingPeers(nodes, leaf.ID) {
		if p == nil {
			continue
		}
		if n := len(p.Outcome().Children); n > capH {
			t.Errorf("peer %s took %d children over its lifetime, cap is %d", nodes[i].Addr(), n, capH)
		}
	}
}
