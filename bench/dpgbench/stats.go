package main

import (
	"math"
	"sort"
)

// summary condenses the values one metric took across runs (or the
// samples of one run): median and quartiles by the exclusive method, which
// is what Python's statistics.quantiles(values, n=4) computes, so the
// run-to-run spread here is the spread the benchmark's acceptance rule is
// stated in.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarize(xs []float64) summary {
	q1, med, q3 := quartiles(xs)
	return summary{Median: med, Q1: q1, Q3: q3, Values: append([]float64(nil), xs...)}
}

// spread is the interquartile distance as a share of the median. Spread
// around a zero median is reported as the largest float (JSON has no
// infinity).
func (s summary) spread() float64 {
	switch {
	case s.Q3 == s.Q1:
		return 0
	case s.Median == 0:
		return math.MaxFloat64
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// quartiles returns the first quartile, median and third quartile of xs
// with the exclusive method (the data is treated as a sample of n+1 equal
// intervals, interpolating between order statistics). One value is its own
// quartiles; no values give NaN.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// tailPercentiles are the percentiles a latency tail is reported at, from
// the highest down.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile applies the reporting rule for a latency tail: the
// highest standard percentile with at least ten of the samples beyond it.
// With fewer than twenty samples no percentile qualifies and the tail
// cannot be told from noise, so the median stands in, reported as
// percentile 50: a run of two operations reports no tail of its own.
func tailPercentile(xs []float64) (pct, value float64) {
	if len(xs) == 0 {
		return 50, math.NaN()
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := float64(len(d))
	for _, p := range tailPercentiles {
		// The epsilon absorbs rounding in 100-p (100-99.9 is not 0.1).
		if n*(100-p)/100 >= 10-1e-9 {
			return p, percentile(d, p)
		}
	}
	return 50, percentile(d, 50)
}

// rssHigh is the 90th percentile of a process's sampled resident set: the
// level it stays under nine-tenths of the time. A server's single highest
// sample depends on which large jobs happened to overlap, and moved by a
// quarter between runs at one seed; this level moved by a few percent.
func rssHigh(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	d := append([]float64(nil), samples...)
	sort.Float64s(d)
	return percentile(d, 90)
}

// percentile interpolates linearly between the order statistics of the
// sorted values d.
func percentile(d []float64, p float64) float64 {
	rank := p / 100 * float64(len(d)-1)
	lo := int(math.Floor(rank))
	if lo >= len(d)-1 {
		return d[len(d)-1]
	}
	frac := rank - float64(lo)
	return d[lo] + (d[lo+1]-d[lo])*frac
}
