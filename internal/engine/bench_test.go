package engine_test

import (
	"testing"

	"p2pmss/internal/seq"
)

// The benchmarks run one full coordination round over a 100-peer
// overlay (H=10) through the in-memory harness in control-plane-only
// mode (rates and topology, no packet divisions) — the configuration
// the simulator's sweep ceilings run thousands of times per point. The
// harness and peers are built once and Reset per iteration, so the
// steady-state allocs/op is the engine's own footprint; CI gates it at
// ≤100 via `benchjson -assert-max-allocs 100` over BENCH_engine.json.
//
// The *Data variants run the same round with the content materialized
// (l = 30,000, the Figure-12 length): every Request, control and commit
// carries a real subsequence, so merges union packets and hand-offs
// enhance and divide them — the shape sim_packet and every live session
// run. B/op is the figure to watch there (BENCH_seq.json).

func benchEngine(b *testing.B, dcop bool, content seq.Sequence) {
	h := newHarness(baseConfig(100, 10, dcop), 1)
	h.start(content, 25, 1)
	h.run() // warm-up: populate free lists, scratch buffers, map buckets
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := int64(i) + 1
		h.reset(seed)
		h.start(content, 25, seed)
		h.run()
	}
}

func BenchmarkEngineTCoP(b *testing.B) { benchEngine(b, false, nil) }
func BenchmarkEngineDCoP(b *testing.B) { benchEngine(b, true, nil) }

func BenchmarkEngineTCoPData(b *testing.B) { benchEngine(b, false, seq.Range(1, 30000)) }
func BenchmarkEngineDCoPData(b *testing.B) { benchEngine(b, true, seq.Range(1, 30000)) }
