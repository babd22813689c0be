package main

import (
	"math"
	"testing"
)

// The expected quartiles are what Python's statistics.quantiles(v, n=4)
// prints for the same samples.
func TestSummariseMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		v              []float64
		q1, median, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		s := summarise(c.v)
		if s.q1 != c.q1 || s.median != c.median || s.q3 != c.q3 {
			t.Errorf("summarise(%v) = %v %v %v, want %v %v %v", c.v, s.q1, s.median, s.q3, c.q1, c.median, c.q3)
		}
		if want := (c.q3 - c.q1) / c.median; math.Abs(s.spread-want) > 1e-12 {
			t.Errorf("spread of %v = %v, want %v", c.v, s.spread, want)
		}
	}
}
