package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// verdict is how one (workload, end-to-end metric) pair compares across
// two result sets.
type verdict string

const (
	verdictAgree      verdict = "agree"
	verdictDisagree   verdict = "DISAGREE"
	verdictUnresolved verdict = "unresolved" // a set's own interquartile spread exceeds the bound
	verdictMissing    verdict = "missing"
)

// compare judges two summaries of one metric against its bound: the
// medians agree when they differ by at most bound of the first median,
// unless either set's spread already exceeds the bound, in which case the
// comparison cannot resolve a difference of that size.
func compare(a, b summary, bound float64) (diff float64, v verdict) {
	if a.Median == 0 {
		return math.NaN(), verdictUnresolved
	}
	diff = (b.Median - a.Median) / math.Abs(a.Median)
	switch {
	case a.spread() > bound || b.spread() > bound:
		return diff, verdictUnresolved
	case math.Abs(diff) > bound:
		return diff, verdictDisagree
	}
	return diff, verdictAgree
}

// agreeFiles compares two results.json files for every declared workload
// and end-to-end metric, one line each. The exit code is 0 only when
// every pair agrees.
func agreeFiles(c *contract, pathA, pathB string, stdout, stderr io.Writer) int {
	var sets [2]resultsFile
	for i, p := range []string{pathA, pathB} {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &sets[i])
		}
		if err != nil {
			fmt.Fprintln(stderr, "dpgbench:", err)
			return 2
		}
	}
	all := true
	fmt.Fprintf(stdout, "%-15s %-16s %14s %14s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "diff", "bound", "verdict")
	for _, w := range c.workloadNames() {
		for _, m := range c.EndToEnd {
			a, okA := lookupSummary(sets[0], w, m.Name)
			b, okB := lookupSummary(sets[1], w, m.Name)
			diff, v := math.NaN(), verdictMissing
			if okA && okB {
				diff, v = compare(a, b, *m.Bound)
			}
			all = all && v == verdictAgree
			fmt.Fprintf(stdout, "%-15s %-16s %14.6g %14.6g %+7.1f%% %5.0f%%  %s (spread %.1f%% / %.1f%%)\n",
				w, m.Name, a.Median, b.Median, 100*diff, 100**m.Bound, v, 100*a.spread(), 100*b.spread())
		}
	}
	if !all {
		return 1
	}
	return 0
}

func lookupSummary(r resultsFile, workload, metric string) (summary, bool) {
	wr, ok := r.Workloads[workload]
	if !ok {
		return summary{}, false
	}
	s, ok := wr.Summary[metric]
	return s.summary, ok
}
