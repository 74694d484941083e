package experiment

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s sample
	if s.Mean() != 0 || s.CI95() != 0 {
		t.Error("empty sample not zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v", s.Mean())
	}
	// Known dataset: sample variance = 32/7.
	want := 1.96 * math.Sqrt(32.0/7.0) / math.Sqrt(8)
	if d := s.CI95() - want; d > 1e-12 || d < -1e-12 {
		t.Errorf("CI95 = %v, want %v", s.CI95(), want)
	}
}

func TestCI95Coverage(t *testing.T) {
	// The 95% CI of the mean should contain the true mean ~95% of the
	// time; check it is at least roughly calibrated.
	rng := rand.New(rand.NewSource(1))
	hits := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		var s sample
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

// Property: the mean lies within the observations' range and the CI
// half-width is non-negative.
func TestSampleProperties(t *testing.T) {
	f := func(raw []float64) bool {
		var s sample
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range raw {
			// Exclude non-finite and astronomically large inputs whose
			// sums overflow float64 — out of scope for metric data.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				s.Add(x)
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
		}
		if len(s.xs) == 0 {
			return true
		}
		m := s.Mean()
		return m >= lo-1e-9 && m <= hi+1e-9 && s.CI95() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
