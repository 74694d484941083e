package experiment

import "math"

// sample accumulates one metric's observations across a grid point's
// seeds.
type sample struct {
	xs []float64
}

// Add records one observation.
func (s *sample) Add(x float64) { s.xs = append(s.xs, x) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// variance returns the unbiased sample variance.
func (s *sample) variance() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var sum float64
	for _, x := range s.xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(n-1)
}

// CI95 returns the half-width of the 95% confidence interval of the mean
// using the normal approximation (adequate for the harness's ≥5 seeds).
func (s *sample) CI95() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	return 1.96 * math.Sqrt(s.variance()) / math.Sqrt(float64(n))
}
