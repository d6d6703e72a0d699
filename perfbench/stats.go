package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported quantile: a
// p99 over 200 samples is the second-largest value, not a tail estimate.
const minTail = 10

// quantile returns the q-quantile of samples (nearest rank on a sorted
// copy). It refuses a quantile that has fewer than minTail samples
// beyond it. Failed operations are passed as +Inf, so they count as
// infinitely slow instead of vanishing from the distribution.
func quantile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("quantile p%g of no samples", 100*q)
	}
	// Nearest rank, with a tolerance so that 0.9×100 counts as rank 90
	// despite floating point.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; q > 0.5 && beyond < minTail {
		return 0, fmt.Errorf("quantile p%g needs %d samples beyond it, have %d of %d",
			100*q, minTail, beyond, n)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the plain median of a non-empty slice.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the
// "exclusive" method), which is how run-to-run spread is judged.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
