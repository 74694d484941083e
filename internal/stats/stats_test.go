package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Stddev() != 0 || s.N() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Error("empty sample not zero")
	}
	s.AddAll(2, 4, 4, 4, 5, 5, 7, 9)
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v", s.Mean())
	}
	// Known dataset: sample stddev = sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if d := s.Stddev() - want; d > 1e-12 || d < -1e-12 {
		t.Errorf("Stddev = %v, want %v", s.Stddev(), want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestCI95Coverage(t *testing.T) {
	// The 95% CI of the mean should contain the true mean ~95% of the
	// time; check it is at least roughly calibrated.
	rng := rand.New(rand.NewSource(1))
	hits := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		var s Sample
		for j := 0; j < 30; j++ {
			s.Add(rng.NormFloat64()*2 + 10)
		}
		if math.Abs(s.Mean()-10) <= s.CI95() {
			hits++
		}
	}
	frac := float64(hits) / trials
	if frac < 0.88 || frac > 0.99 {
		t.Errorf("CI coverage %.3f, want ≈0.95", frac)
	}
}

func TestSummaryFormat(t *testing.T) {
	var s Sample
	s.AddAll(1, 1, 1)
	if !strings.Contains(s.Summary(), "±") {
		t.Errorf("Summary = %q", s.Summary())
	}
}

// Property: mean is within [min, max], stddev non-negative.
func TestSampleProperties(t *testing.T) {
	f := func(raw []float64) bool {
		var s Sample
		for _, x := range raw {
			// Exclude non-finite and astronomically large inputs whose
			// sums overflow float64 — out of scope for metric data.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				s.Add(x)
			}
		}
		if s.N() == 0 {
			return true
		}
		m := s.Mean()
		if m < s.Min()-1e-9 || m > s.Max()+1e-9 {
			return false
		}
		return s.Stddev() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
