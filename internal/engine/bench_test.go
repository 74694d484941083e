package engine_test

import (
	"testing"

	"p2pmss/internal/engine"
	"p2pmss/internal/parity"
	"p2pmss/internal/seq"
)

// The benchmarks run one full coordination round over a 100-peer
// overlay (H=10) through the in-memory harness in control-plane-only
// mode (rates and topology, no packet divisions) — the configuration
// the simulator's sweep ceilings run thousands of times per point. The
// harness is built once, and each iteration resets its pool and builds
// the peers from it again, as the simulator starts a run, so the
// steady-state allocs/op is the engine's own footprint; CI gates it at
// ≤100 via `benchjson -assert-max-allocs 100` over BENCH_engine.json.
//
// The *Data variants run the same round with the content materialized
// (l = 30,000, the Figure-12 length): every Request, control and commit
// carries a real subsequence, so merges union packets and hand-offs
// enhance and divide them — the shape sim_packet and every live session
// run. B/op is the figure to watch there (BENCH_seq.json).

func benchEngine(b *testing.B, dcop bool, content seq.Sequence) {
	benchEngineConfig(b, baseConfig(100, 10, dcop), content)
}

func benchEngineConfig(b *testing.B, cfg engine.Config, content seq.Sequence) {
	h := newHarness(cfg, 1)
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

// BenchmarkEngineDCoPDataH30 is the DCoP round at H = 30, where views
// fill after the first flood: most merges are followed by no selection,
// so the schedule only ever takes them in (at H = 10 every merge is
// followed by one, and the engine needs the union itself).
func BenchmarkEngineDCoPDataH30(b *testing.B) {
	benchEngineConfig(b, baseConfig(100, 30, true), seq.Range(1, 30000))
}

// fig12Share is a hand-off as Figure 12 runs one at H = 30 (interval
// 29): a peer's initial share of the content, about 400 packets, handed
// to two children and the peer itself 20 packets on.
func fig12Share() (stream seq.Sequence, mark, interval, k int) {
	return seq.Div(parity.Enhance(seq.Range(1, 12000), 29), 30, 0), 20, 29, 3
}

// BenchmarkShareOut is the division a hand-off computes: Esq of the
// stream past the mark, divided three ways.
func BenchmarkShareOut(b *testing.B) {
	stream, mark, interval, k := fig12Share()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.ShareOut(stream, mark, 2, interval, k)
	}
}

// BenchmarkStreamSwitch is the switch that hand-off plans: the unsent
// remainder minus what the children were given, unioned with the
// peer's own share.
func BenchmarkStreamSwitch(b *testing.B) {
	stream, mark, interval, k := fig12Share()
	parts, rate := engine.ShareOut(stream, mark, 2, interval, k)
	keep, given := engine.SplitParts(parts)
	var st engine.Stream
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Install(stream, 2)
		st.Apply(&engine.Handoff{Keep: keep, Given: given, OldRate: 2, NewRate: rate, Mark: mark})
		st.Switch()
	}
}

// mergeShape is a Figure-12 peer picked by many DCoP parents: a
// 370-packet unsent remainder of its own share (interval 29) and 30
// shares of 12 packets from its other parents, spread over the whole
// remaining content like the remainder itself and overlapping it here
// and there.
func mergeShape() (remainder seq.Sequence, shares []seq.Sequence) {
	enhanced := parity.Enhance(seq.Range(1, 12000), 29)
	own := seq.Div(enhanced, 30, 0)
	remainder = own[len(own)-370:]
	for i := 0; i < 30; i++ {
		shares = append(shares, seq.Div(enhanced[len(enhanced)-12000:], 1000, 1+29*i))
	}
	return remainder, shares
}

// BenchmarkStreamMergeSmall is that peer's schedule over one op: the
// remainder installed, the 30 shares merged in with two packets sent
// between merges, then every packet sent.
func BenchmarkStreamMergeSmall(b *testing.B) {
	remainder, shares := mergeShape()
	var st engine.Stream
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Install(remainder, 1)
		for _, s := range shares {
			st.Merge(s, 0.1)
			st.Next()
			st.Next()
		}
		for _, ok := st.Next(); ok; _, ok = st.Next() {
		}
	}
}
