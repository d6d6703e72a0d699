// Package stats provides the small numerical toolkit used throughout
// gostats: online (single-pass) mean accumulation, Pearson correlation,
// histograms, and order statistics.
//
// Everything here is allocation-light on the hot paths because the ETL
// pipeline calls into this package once per job and the fleet simulations
// process hundreds of thousands of jobs.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by reductions over empty inputs.
var ErrEmpty = errors.New("stats: empty input")

// Online accumulates count, mean and maximum in a single pass. The
// zero value is ready to use.
type Online struct {
	n    int
	mean float64
	max  float64
}

// Add folds x into the accumulator.
func (o *Online) Add(x float64) {
	if o.n == 0 || x > o.max {
		o.max = x
	}
	o.n++
	o.mean += (x - o.mean) / float64(o.n)
}

// N reports the number of samples seen.
func (o *Online) N() int { return o.n }

// Mean reports the running mean, or 0 with no samples.
func (o *Online) Mean() float64 { return o.mean }

// Max reports the largest sample seen, or 0 with no samples.
func (o *Online) Max() float64 { return o.max }

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// Max returns the largest value of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Min returns the smallest value of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Pearson returns the Pearson product-moment correlation coefficient of
// the paired samples (xs[i], ys[i]). It returns an error if the slices
// differ in length, have fewer than two samples, or either series has zero
// variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}
