package gossip

import (
	"math"
	"testing"
)

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{N: 0, Fanout: 1}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := Run(Config{N: 5, Fanout: 0}); err == nil {
		t.Error("Fanout=0 accepted")
	}
}

func TestFullCoverageWithLargeFanout(t *testing.T) {
	res, err := Run(Config{N: 50, Fanout: 49, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Infected != 50 {
		t.Errorf("infected = %d", res.Infected)
	}
	if res.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", res.Rounds)
	}
	// Flooding: every infected node forwards once → n(n-1) pushes.
	if res.Messages != 50*49 {
		t.Errorf("messages = %d, want %d", res.Messages, 50*49)
	}
}

// Each infected node forwards exactly once, on its first infection, to
// min(Fanout, N−1) targets, however many pushes reach it later; so the
// push count is fixed by the coverage.
func TestEachNodeForwardsOnce(t *testing.T) {
	for _, cfg := range []Config{{N: 40, Fanout: 4}, {N: 30, Fanout: 3}, {N: 100, Fanout: 2}, {N: 5, Fanout: 9}} {
		for seed := int64(1); seed <= 8; seed++ {
			cfg.Seed = seed
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(res.Infected) * int64(min(cfg.Fanout, cfg.N-1)); res.Messages != want {
				t.Errorf("%+v: %d messages for %d infected, want %d", cfg, res.Messages, res.Infected, want)
			}
		}
	}
}

func TestSingleNode(t *testing.T) {
	res, err := Run(Config{N: 1, Fanout: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Infected != 1 || res.Messages != 0 {
		t.Errorf("res = %+v", res)
	}
}

// The [6] phase transition: fanout ≥ ln(n)+c yields near-complete
// coverage; fanout 1 does not.
func TestCoveragePhaseTransition(t *testing.T) {
	n := 100
	curve, err := CoverageCurve(n, []int{1, int(math.Log(float64(n))) + 3}, 10)
	if err != nil {
		t.Fatal(err)
	}
	low := curve[1]
	high := curve[int(math.Log(float64(n)))+3]
	if low > 0.9 {
		t.Errorf("fanout 1 coverage %.2f suspiciously high", low)
	}
	if high < 0.95 {
		t.Errorf("fanout ln(n)+3 coverage %.2f too low", high)
	}
	if high <= low {
		t.Errorf("no phase transition: %.2f vs %.2f", low, high)
	}
}

func TestRoundsGrowWithSmallerFanout(t *testing.T) {
	var small, large float64
	for seed := int64(1); seed <= 5; seed++ {
		s, err := Run(Config{N: 100, Fanout: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		l, err := Run(Config{N: 100, Fanout: 30, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		small += float64(s.Rounds)
		large += float64(l.Rounds)
	}
	if small <= large {
		t.Errorf("fanout 2 rounds %v not above fanout 30 rounds %v", small, large)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(Config{N: 60, Fanout: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{N: 60, Fanout: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

func BenchmarkGossip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{N: 200, Fanout: 6, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}
