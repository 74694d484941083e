package coord

import "testing"

// BenchmarkRunControlPlane is one whole simulated run per op: Run at
// n = 100, H = 10 on the control plane only, the shape of one point of
// Figures 10 and 11. Every op runs the same seed, so allocs/op is the
// run's own count and CI gates it (BENCH_des.json): the engine peers,
// the run's one engine.Pool, the event queue, the network and the
// outcomes together.
func BenchmarkRunControlPlane(b *testing.B) {
	for _, proto := range []Protocol{DCoP, TCoP} {
		b.Run(proto, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.N, cfg.H = 100, 10
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(proto, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunFluid is one whole n = 10,000, H = 10 run per op on the
// fluid data plane, the shape of the sweeps' large points: the engine
// peers, their views and the flow ledger dominate. Every op runs the
// same seed, so allocs/op is the run's own count and CI gates it
// (BENCH_des.json).
func BenchmarkRunFluid(b *testing.B) {
	for _, proto := range []Protocol{DCoP, TCoP} {
		b.Run(proto, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.N, cfg.H = 10000, 10
			cfg.DataPlane, cfg.PlaneMode = true, PlaneFluid
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(proto, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
