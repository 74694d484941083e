package coord

import (
	"bytes"
	"encoding/json"
	"runtime"
	"slices"
	"testing"
	"time"

	"p2pmss/internal/engine"
	"p2pmss/internal/flight"
	"p2pmss/internal/metrics"
	"p2pmss/internal/transport"
)

// idleArenas is how many arenas finished runs left.
func idleArenas() int {
	arenas.Lock()
	defer arenas.Unlock()
	return len(arenas.idle)
}

// emptyArenas lets the collector drop every idle arena: three
// collections and the finalizer after each. It fails t if they outlive
// a hundred.
func emptyArenas(t *testing.T) {
	t.Helper()
	for i := 0; idleArenas() > 0; i++ {
		if i == 100 {
			t.Fatalf("%d idle arenas outlived %d collections", idleArenas(), i)
		}
		runtime.GC()
		time.Sleep(time.Millisecond) // the finalizer runs after the collection
	}
}

// TestIdleArenasAgeOut: a finished run leaves its arena for the next,
// which takes that one, and the collector drops an arena left idle, as
// a sync.Pool's items are dropped. A second run takes it back even if
// the run that left it ran on another goroutine.
func TestIdleArenasAgeOut(t *testing.T) {
	emptyArenas(t)
	cfg := DefaultConfig()
	cfg.N, cfg.H = 20, 4
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := Run(TCoP, cfg); err != nil {
			t.Error(err)
		}
	}()
	<-done
	arenas.Lock()
	left := slices.Clone(arenas.idle)
	arenas.Unlock()
	if len(left) != 1 {
		t.Fatalf("a finished run left %d idle arenas, want 1", len(left))
	}
	r, err := newRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r != left[0] || idleArenas() != 0 {
		t.Fatalf("the next run took %p (%d idle left), want the arena left, %p", r, idleArenas(), left[0])
	}
	r.release()
	emptyArenas(t)
}

// arenaCase is a run whose config is made afresh for each call, with
// observers of its own where it has them.
type arenaCase struct {
	name  string
	proto Protocol
	cfg   func() Config
}

// arenaCases cover every plane and what each keeps in the arena: the
// packet plane with loss, bursts, repair, churn and crashes (links, crash
// flags, the leaf's assembler), a looping packet run (the assembler
// again), a lossy fluid run with churn (the ledger and its masks),
// an observed control-plane run at the sweeps' shape, and two baselines.
func arenaCases() []arenaCase {
	packet := func(n, h int) Config {
		cfg := DefaultConfig()
		cfg.N, cfg.H, cfg.Seed = n, h, 7
		cfg.DataPlane, cfg.Rate, cfg.ContentLen, cfg.Window = true, 2, 2000, 40
		return cfg
	}
	burst := &transport.BurstParams{PGoodToBad: 0.02, PBadToGood: 0.3, LossBad: 0.5}
	return []arenaCase{
		{"dcop packet lossy repair churn", DCoP, func() Config {
			cfg := packet(30, 4)
			cfg.Loop, cfg.LossProb, cfg.Burst, cfg.Repair = false, 0.05, burst, true
			cfg.Churn = &ChurnSchedule{Events: []ChurnEvent{{At: 3, Peer: 5}, {At: 30, Peer: 5, Join: true}}}
			return cfg
		}},
		{"tcop packet lossy retries crashes", TCoP, func() Config {
			cfg := packet(36, 5)
			cfg.Loop, cfg.LossProb, cfg.Burst, cfg.Repair, cfg.Retries = false, 0.05, burst, true, 2
			cfg.Churn = crashesAt(2, 3, 7)
			return cfg
		}},
		{"dcop packet looping", DCoP, func() Config { return packet(40, 5) }},
		{"tcop fluid lossy churn", TCoP, func() Config {
			cfg := DefaultConfig()
			cfg.N, cfg.H, cfg.Seed = 2000, 10, 3
			cfg.DataPlane, cfg.PlaneMode, cfg.LossProb = true, PlaneFluid, 0.02
			cfg.Churn = &ChurnSchedule{Events: []ChurnEvent{{At: 4, Peer: 11}, {At: 40, Peer: 11, Join: true}}}
			return cfg
		}},
		{"dcop control plane observed", DCoP, func() Config {
			cfg := DefaultConfig()
			cfg.N, cfg.H, cfg.Seed = 100, 10, 5
			cfg.Obs = engine.Observability{Metrics: metrics.New(), Flight: flight.NewSet(1 << 10)}
			return cfg
		}},
		{"centralized lossy", Centralized, func() Config {
			cfg := DefaultConfig()
			cfg.N, cfg.H, cfg.LossProb, cfg.Seed = 30, 5, 0.05, 2
			return cfg
		}},
		{"broadcast packet", Broadcast, func() Config { return packet(20, 4) }},
	}
}

// runBytes is everything a run hands back: the Result, and what its
// observers recorded.
func runBytes(t *testing.T, res Result, cfg Config) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, v := range []any{res, cfg.Obs.Metrics.Snapshot(), cfg.Obs.Flight.Events()} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// TestRecycledRunMatchesFresh: each case's reference is a run in a new
// arena that is never released, so nothing recycles or clears it. The
// case then runs through Run in a new arena, then every other case and
// the case itself at another seed and, on the packet plane, with a
// content four times as long run (each leaving its arena to the next;
// the last has the case's links and a larger assembler), then the case
// runs again in the arena they left. Both Results must equal the
// reference byte for byte, the first still after the runs that followed
// it: a Result shares nothing with the arena its run released.
func TestRecycledRunMatchesFresh(t *testing.T) {
	cases := arenaCases()
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			emptyArenas(t)
			run := func(c arenaCase, seed int64) (Result, Config) {
				cfg := c.cfg()
				cfg.Seed += seed
				if seed != 0 && cfg.DataPlane && !cfg.fluid() {
					cfg.ContentLen *= 4
				}
				res, err := Run(c.proto, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res, cfg
			}
			cfg := c.cfg()
			ref, err := newRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.use(c.proto); err != nil {
				t.Fatal(err)
			}
			want := runBytes(t, ref.run(), cfg)

			res, cfg := run(c, 0)
			if got := runBytes(t, res, cfg); !bytes.Equal(got, want) {
				t.Fatalf("a run through Run differs from one whose arena was never released:\n%s\n--never released--\n%s", got, want)
			}
			for j := range cases {
				if j != i {
					run(cases[j], 0)
				}
			}
			run(c, 1)
			if got := runBytes(t, res, cfg); !bytes.Equal(got, want) {
				t.Fatalf("the Result changed while later runs recycled its arena:\n%s\n--was--\n%s", got, want)
			}
			again, cfg := run(c, 0)
			if got := runBytes(t, again, cfg); !bytes.Equal(got, want) {
				t.Fatalf("a run in a recycled arena differs from one in a new arena:\n%s\n--new arena--\n%s", got, want)
			}
		})
	}
}

// TestColdRunAllocs: a run that finds no arena to recycle allocates no
// more than a run did before arenas were recycled, the CI caps of
// BenchmarkRunControlPlane at the time: 415 (DCoP) and 320 (TCoP) at
// n = 100, H = 10.
func TestColdRunAllocs(t *testing.T) {
	for _, c := range []struct {
		proto Protocol
		limit uint64
	}{{DCoP, 415}, {TCoP, 320}} {
		cfg := DefaultConfig()
		cfg.N, cfg.H = 100, 10
		emptyArenas(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(c.proto, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n > c.limit {
			t.Errorf("%s: a cold run made %d allocations, more than %d", c.proto, n, c.limit)
		} else {
			t.Logf("%s: a cold run made %d allocations", c.proto, n)
		}
	}
}
