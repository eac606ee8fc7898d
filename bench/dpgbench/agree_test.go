package main

import "testing"

func TestCompareVerdicts(t *testing.T) {
	tight := func(med float64) summary { return summary{Median: med, Q1: med * 0.98, Q3: med * 1.02} }
	wide := summary{Median: 100, Q1: 80, Q3: 120} // spread 0.4
	cases := []struct {
		name string
		a, b summary
		want verdict
	}{
		{"same", tight(100), tight(104), verdictAgree},
		{"faster within bound", tight(100), tight(90), verdictAgree},
		{"slower beyond bound", tight(100), tight(130), verdictDisagree},
		{"faster beyond bound", tight(100), tight(70), verdictDisagree},
		{"noisy first set", wide, tight(100), verdictUnresolved},
		{"noisy second set", tight(100), wide, verdictUnresolved},
		{"zero median", summary{}, tight(1), verdictUnresolved},
	}
	for _, c := range cases {
		if _, got := compare(c.a, c.b, 0.25); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestJudgePair(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100} // spread 0.02
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	rotated := append(append([]float64(nil), base[1:]...), base[0])
	wide := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100} // spread 0.4
	cases := []struct {
		name         string
		base, change []float64
		higherBetter bool
		want         verdict
	}{
		{"10% faster in every pair", base, scaled(base, 0.9), false, verdictGain},
		{"20% slower", base, scaled(base, 1.2), false, verdictRegression},
		{"the same runs, reordered", base, rotated, false, verdictWithin},
		{"5% slower, inside the bound", base, scaled(base, 1.05), false, verdictWithin},
		{"noisy sides", wide, scaled(wide, 1.02), false, verdictUnresolved},
		{"noisy, but every run far worse", wide, scaled(base, 2), false, verdictRegression},
		{"throughput down 20%", base, scaled(base, 0.8), true, verdictRegression},
		{"throughput up 10%", base, scaled(base, 1.1), true, verdictGain},
	}
	for _, c := range cases {
		if j := judgePair(c.base, c.change, c.higherBetter, 0.1); j.Verdict != c.want {
			t.Errorf("%s: %s (diff %+.3f, %d of %d pairs won), want %s", c.name, j.Verdict, j.Diff, j.Wins, j.Pairs, c.want)
		}
	}
	// A gain must also clear the base's own spread: 3% faster in every
	// pair, against runs spread over 40%, is not one.
	if j := judgePair(wide, scaled(wide, 0.97), false, 0.5); j.Verdict != verdictWithin || j.Wins != 10 {
		t.Errorf("3%% inside a 40%% spread: %s with %d wins, want %s with 10", j.Verdict, j.Wins, verdictWithin)
	}
}
