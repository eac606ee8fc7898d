package main

import (
	"math"
	"sort"
	"testing"
)

// The expected values are Python's statistics.quantiles(data, n=4) and
// statistics.median(data), the reference the spread rule is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data        []float64
		q1, med, q3 float64
		spread      float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 1},
		{[]float64{3.5, 1.25, 9, 7, 2}, 1.625, 3.5, 8.0, 6.375 / 3.5},
		{[]float64{10, 20}, 7.5, 15, 22.5, 1},
		{[]float64{5, 1, 4, 2, 3, 8, 7, 6, 9}, 2.5, 5, 7.5, 1},
		{[]float64{4}, 4, 4, 4, 0},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.data)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.data, q1, med, q3, c.q1, c.med, c.q3)
		}
		if got := summarize(c.data).spread(); math.Abs(got-c.spread) > 1e-12 {
			t.Errorf("spread(%v) = %g, want %g", c.data, got, c.spread)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles(nil) = %g, want NaN", q1)
	}
}

func TestQuartilesLeaveInputAlone(t *testing.T) {
	data := []float64{3, 1, 2}
	quartiles(data)
	if data[0] != 3 || data[1] != 1 || data[2] != 2 {
		t.Fatalf("input reordered: %v", data)
	}
}

// The tail is the highest percentile with at least ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the rule must sort
		}
		return xs
	}
	cases := []struct {
		n   int
		pct float64
	}{
		{2, 50},    // no percentile qualifies: the median stands in
		{19, 50},   // p50 would leave 9.5 beyond
		{20, 50},   // exactly 10 beyond the median
		{39, 50},   // p75 would leave 9.75
		{40, 75},   // 10 beyond p75
		{100, 90},  // 10 beyond p90
		{108, 90},  // serve at 6 req/s for 18 s
		{199, 90},  // p95 would leave 9.95
		{200, 95},  // 10 beyond p95
		{1000, 99}, // 10 beyond p99
		{10000, 99.9},
	}
	for _, c := range cases {
		pct, v := tailPercentile(seq(c.n))
		if pct != c.pct {
			t.Errorf("n=%d: percentile %g, want %g", c.n, pct, c.pct)
		}
		d := seq(c.n)
		sort.Float64s(d)
		if want := percentile(d, pct); v != want {
			t.Errorf("n=%d: value %g, want %g", c.n, v, want)
		}
	}
	// Two operations, as a command-line run measures: their median.
	if _, v := tailPercentile([]float64{9, 7}); v != 8 {
		t.Errorf("tail of two operations = %g, want their median 8", v)
	}
	// 1..100: p90 interpolates between the 90th and 91st order statistics.
	if _, v := tailPercentile(seq(100)); math.Abs(v-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %g, want 90.1", v)
	}
}

// A server's memory level ignores its rarest spikes: one sample in ten
// may sit anywhere above it.
func TestRSSHigh(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i%10 + 40) // 40..49, ten of each
	}
	samples[7], samples[42] = 300, 500 // two spikes
	if got := rssHigh(samples); got < 48 || got > 49 {
		t.Errorf("rssHigh = %g, want the bulk's top, within 48..49", got)
	}
	if samples[7] != 300 {
		t.Error("rssHigh reordered its input")
	}
	if !math.IsNaN(rssHigh(nil)) {
		t.Error("rssHigh of no samples is not NaN")
	}
}
