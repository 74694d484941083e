// Package gossip implements the probabilistic dissemination substrate the
// paper's flooding protocols build on (references [6] Kermarrec/Massoulié/
// Ganesh, "Probabilistic Reliable Dissemination in Large-Scale Systems",
// and [7] Lin/Marzullo, "Directional Gossip"). It has two parts that
// share only the target draw: Run simulates one push-gossip rumor over a
// fixed population, the [6] fanout/coverage study of `mssim -fig gossip`
// (why DCoP needs H ≳ ln n), and Live runs periodic wall-clock rounds
// over real send callbacks with a [7]-style directional sweep (the
// decentralized directory in internal/disco gossips catalog
// announcements through it).
package gossip

import (
	"fmt"
	"math/rand"

	"p2pmss/internal/des"
)

// Config parameterizes a simulated dissemination.
type Config struct {
	// N is the number of nodes.
	N int
	// Fanout is how many targets an infected node pushes to.
	Fanout int
	// Seed seeds the run.
	Seed int64
}

// Result reports a dissemination outcome.
type Result struct {
	// Infected is how many nodes received the rumor.
	Infected int
	// Rounds is the highest hop count at which a node was first
	// infected.
	Rounds int
	// Messages is the number of pushes sent.
	Messages int64
}

// push is one rumor push in flight: its destination and hop count.
type push struct{ to, hop int }

// Run disseminates one rumor from node 0 and reports coverage. A node
// forwards once, on its first infection, to Fanout targets drawn
// uniformly from the other nodes (the paper's flooding style); pushes
// arrive in the order they are sent, and a push to an infected node is
// dropped.
func Run(cfg Config) (Result, error) {
	if cfg.N <= 0 || cfg.Fanout <= 0 {
		return Result{}, fmt.Errorf("gossip: N=%d and Fanout=%d must be positive", cfg.N, cfg.Fanout)
	}
	rng := des.NewRand(cfg.Seed)
	infected := make([]bool, cfg.N)
	cands := make([]int, 0, cfg.N-1)
	var res Result
	for queue := []push{{to: 0}}; len(queue) > 0; queue = queue[1:] {
		p := queue[0]
		if infected[p.to] {
			continue
		}
		infected[p.to] = true
		res.Infected++
		res.Rounds = max(res.Rounds, p.hop)
		cands = cands[:0]
		for i := 0; i < cfg.N; i++ {
			if i != p.to {
				cands = append(cands, i)
			}
		}
		for _, t := range pickFanout(rng, cands, cfg.Fanout) {
			res.Messages++
			queue = append(queue, push{to: t, hop: p.hop + 1})
		}
	}
	return res, nil
}

// CoverageCurve sweeps the fanout and returns the mean infected fraction
// per fanout over the given number of seeds — the [6]-style phase
// transition around fanout ≈ ln(n).
func CoverageCurve(n int, fanouts []int, seeds int) (map[int]float64, error) {
	out := make(map[int]float64, len(fanouts))
	for _, f := range fanouts {
		var sum float64
		for s := 0; s < seeds; s++ {
			res, err := Run(Config{N: n, Fanout: f, Seed: int64(s + 1)})
			if err != nil {
				return nil, err
			}
			sum += float64(res.Infected) / float64(n)
		}
		out[f] = sum / float64(seeds)
	}
	return out, nil
}

// pickFanout shuffles the candidates and truncates to the fanout — the
// one place the package draws randomness, shared by Run and Live.
func pickFanout[T any](rng *rand.Rand, cands []T, fanout int) []T {
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) > fanout {
		cands = cands[:fanout]
	}
	return cands
}
