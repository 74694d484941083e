package gossip

import "p2pmss/internal/des"

// This file is the discrete-event driver: the round engine on des,
// preserving the original Run semantics (and, per seed, the exact
// results) of the pre-split package.

// Run disseminates one rumor from node 0 and reports coverage. A push is
// lost with probability LossProb, drawn at send time on the engine's
// stream, and otherwise arrives Latency later.
func Run(cfg Config) (Result, error) {
	eng := des.New(cfg.Seed)
	var g *Engine
	g, err := NewEngine(cfg, eng.Rand(), func(from, to int, p Push) {
		if cfg.LossProb > 0 && eng.Rand().Float64() < cfg.LossProb {
			return
		}
		eng.After(cfg.Latency, func() { g.Deliver(to, p) })
	}, eng.Now)
	if err != nil {
		return Result{}, err
	}

	eng.At(0, func() { g.Start(0) })
	eng.Run()
	return g.Result(), nil
}

// CoverageCurve sweeps the fanout and returns the mean infected fraction
// per fanout over the given number of seeds — the [6]-style phase
// transition around fanout ≈ ln(n).
func CoverageCurve(n int, fanouts []int, seeds int, directional bool) (map[int]float64, error) {
	out := make(map[int]float64, len(fanouts))
	for _, f := range fanouts {
		var sum float64
		for s := 0; s < seeds; s++ {
			res, err := Run(Config{N: n, Fanout: f, Seed: int64(s + 1), Directional: directional})
			if err != nil {
				return nil, err
			}
			sum += float64(res.Infected) / float64(n)
		}
		out[f] = sum / float64(seeds)
	}
	return out, nil
}
