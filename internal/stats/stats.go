// Package stats provides the summary statistics the experiment harness
// reports: means, standard deviations and confidence intervals.
// Stdlib-only, allocation-light.
package stats

import (
	"fmt"
	"math"
)

// Sample accumulates observations.
type Sample struct {
	xs []float64
}

// Add records one observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// AddAll records many observations.
func (s *Sample) AddAll(xs ...float64) { s.xs = append(s.xs, xs...) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Var returns the unbiased sample variance.
func (s *Sample) Var() float64 {
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

// Stddev returns the sample standard deviation.
func (s *Sample) Stddev() float64 { return math.Sqrt(s.Var()) }

// Min and Max return the extremes (0 for empty samples).
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest observation.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// CI95 returns the half-width of the 95% confidence interval of the mean
// using the normal approximation (adequate for the harness's ≥5 seeds).
func (s *Sample) CI95() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	return 1.96 * s.Stddev() / math.Sqrt(float64(n))
}

// Summary formats "mean ± ci95".
func (s *Sample) Summary() string {
	return fmt.Sprintf("%.3f ± %.3f", s.Mean(), s.CI95())
}
