package coord

import (
	"runtime"
	"sync"
	"testing"
)

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
			startThreads(b)
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
			startThreads(b)
			for i := 0; i < b.N; i++ {
				if _, err := Run(proto, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// startThreads has the runtime start, before b's timer, the OS threads
// that a busy run keeps its other Ps on, and resets the timer. The
// runtime starts a thread when the scheduler wakes an idle P and finds
// no idle thread for it, which a run's collections or a preemption of
// its goroutine may do at any point; the first time, that costs six
// allocations of about 5.5 KB (the thread's m, its g0 and signal
// goroutines and its profiling stacks), counted in allocs/op if it
// lands inside the timer, as BenchmarkRunFluid/dcop's 32 allocs/op
// against 29 showed in about one process of ten. Each of
// 2×GOMAXPROCS goroutines holds a thread of its own until all are
// parked, and the threads stay behind, idle, when they finish.
func startThreads(b *testing.B) {
	n := 2 * runtime.GOMAXPROCS(0)
	var parked, done sync.WaitGroup
	parked.Add(n)
	done.Add(n)
	release := make(chan struct{})
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			parked.Done()
			<-release
		}()
	}
	parked.Wait()
	close(release)
	done.Wait()
	b.ReportAllocs()
	b.ResetTimer()
}
