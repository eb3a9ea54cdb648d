package main

import (
	"math"
	"slices"
	"strconv"
)

// dist is a sample of one timing.
type dist []float64

// quantile returns the nearest-rank q-quantile, or NaN for an empty
// sample.
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	s := slices.Clone(d)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func (d dist) median() float64 { return d.quantile(0.5) }

func (d dist) max() float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	return slices.Max(d)
}

func (d dist) mean() float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range d {
		sum += v
	}
	return sum / float64(len(d))
}

// tailLevel returns the percentile a sample of n reports as its tail:
// the one with exactly ten samples beyond it, so the tail moves
// smoothly with n, but no higher than p99 and no lower than the median.
func tailLevel(n int) float64 {
	return min(0.99, max(0.5, 1-10/float64(n)))
}

// tail returns the sample's tail (see tailLevel) and its percentile's
// label, such as "p99.0".
func (d dist) tail() (float64, string) {
	q := tailLevel(len(d))
	return d.quantile(q), "p" + strconv.FormatFloat(q*100, 'f', 1, 64)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
