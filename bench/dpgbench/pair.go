package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// Paired verdicts, from the change's side.
const (
	verdictGain       verdict = "gain"
	verdictRegression verdict = "REGRESSION"
	verdictWithin     verdict = "within-bound"
)

// pairJudgement is how one end-to-end metric of one workload compares
// across paired runs of a base checkout and the change.
type pairJudgement struct {
	Base    summary `json:"base"`
	Change  summary `json:"change"`
	Diff    float64 `json:"diff"` // (change - base) / base, of the medians
	Wins    int     `json:"wins"` // pairs in which the change read better
	Pairs   int     `json:"pairs"`
	Verdict verdict `json:"verdict"`
}

// judgePair applies the paired-comparison rule to one metric's values,
// base[i] and change[i] taken in pair i:
//   - gain: the change reads better in at least nine tenths of the pairs
//     (ties count for neither) and its median beats the base's by more
//     than the base's own interquartile distance;
//   - REGRESSION: the change's median is worse than the base's by more
//     than bound, and either both sides' spreads are within bound or
//     every change run reads worse than every base run;
//   - unresolved: a side's spread exceeds bound and not every change run
//     reads better than every base run, so a difference of the bound's
//     size could hide in the noise;
//   - within-bound otherwise.
func judgePair(base, change []float64, higherBetter bool, bound float64) pairJudgement {
	better := func(x, y float64) bool { // x reads better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	j := pairJudgement{Base: summarize(base), Change: summarize(change), Pairs: len(base)}
	for i := range base {
		if better(change[i], base[i]) {
			j.Wins++
		}
	}
	if j.Pairs == 0 || j.Base.Median == 0 {
		j.Diff, j.Verdict = math.NaN(), verdictUnresolved
		return j
	}
	j.Diff = (j.Change.Median - j.Base.Median) / math.Abs(j.Base.Median)
	worse := j.Diff // > 0: the change's median reads worse
	if higherBetter {
		worse = -worse
	}
	every := func(f func(c, b float64) bool) bool {
		for _, c := range change {
			for _, b := range base {
				if !f(c, b) {
					return false
				}
			}
		}
		return true
	}
	allBetter := every(better)
	allWorse := every(func(c, b float64) bool { return better(b, c) })
	noisy := j.Base.spread() > bound || j.Change.spread() > bound
	switch {
	case j.Wins*10 >= 9*j.Pairs && worse < 0 && math.Abs(j.Change.Median-j.Base.Median) > j.Base.Q3-j.Base.Q1:
		j.Verdict = verdictGain
	case worse > bound && (!noisy || allWorse):
		j.Verdict = verdictRegression
	case noisy && !allBetter:
		j.Verdict = verdictUnresolved
	default:
		j.Verdict = verdictWithin
	}
	return j
}

// pairsFile is pairs.json: every paired run and each metric's judgement.
type pairsFile struct {
	Meta      map[string]any             `json:"meta"`
	Base      string                     `json:"base"`
	Change    string                     `json:"change"`
	Workloads map[string]*pairedWorkload `json:"workloads"`
}

// pairedWorkload is one workload's section of pairs.json.
type pairedWorkload struct {
	Seeds     []uint64                 `json:"seeds"`
	Base      []line                   `json:"base"`
	Change    []line                   `json:"change"`
	Judgement map[string]pairJudgement `json:"judgement"`
}

// runPairs measures the checkout at base against this one in alternating
// runs: pairs runs of each side per workload, both sides of pair i at seed
// S+i, the base first in even pairs and the change first in odd ones, so
// drift in the host's speed falls on both sides alike. Each run is
// BENCHMARK.json's command started in that side's checkout, which builds
// its own programs. It prints each (workload, end-to-end metric) pair's
// judgement and writes every run to pairs.json under out; the exit code is
// 1 when a check failed or a metric regressed.
func (b *bench) runPairs(ctx context.Context, c *contract, base string, pairs int, names []string, out string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dpgbench:", err)
		return 2
	}
	base, err := filepath.Abs(base)
	if err != nil {
		return fail(err)
	}
	if out == "" {
		out, err = os.MkdirTemp("", "dpgbench-pairs-")
	} else {
		err = os.MkdirAll(out, 0o755)
	}
	if err != nil {
		return fail(err)
	}
	res := pairsFile{Meta: b.meta(pairs), Base: base, Change: b.repo, Workloads: map[string]*pairedWorkload{}}
	code := 0
	fmt.Fprintf(stdout, "%-15s %-15s %12s %12s %8s %6s %6s  %s\n", "workload", "metric", "base", "change", "diff", "wins", "bound", "verdict")
	for _, name := range names {
		pw := &pairedWorkload{Judgement: map[string]pairJudgement{}}
		res.Workloads[name] = pw
		for i := 0; i < pairs; i++ {
			seed := b.seed + uint64(i)
			var got [2]line // base, change
			for k := 0; k < 2; k++ {
				side := (i + k) % 2 // even pairs run the base first
				root := []string{base, b.repo}[side]
				l, err := b.sideRun(ctx, c, root, name, seed, stderr)
				if err != nil {
					return fail(err)
				}
				if !l.Correct {
					code = 1
					fmt.Fprintf(stdout, "# FAILED %s seed %d in %s: %d of %d checked operations failed\n", name, seed, root, l.Failed, l.Attempted)
				}
				got[side] = l
			}
			pw.Seeds = append(pw.Seeds, seed)
			pw.Base = append(pw.Base, got[0])
			pw.Change = append(pw.Change, got[1])
		}
		for _, d := range c.EndToEnd {
			var bv, cv []float64
			for i := range pw.Base {
				bv = append(bv, pw.Base[i].Metrics[d.Name].Value)
				cv = append(cv, pw.Change[i].Metrics[d.Name].Value)
			}
			j := judgePair(bv, cv, d.Better == "higher", *d.Bound)
			pw.Judgement[d.Name] = j
			if j.Verdict == verdictRegression {
				code = 1
			}
			fmt.Fprintf(stdout, "%-15s %-15s %12.6g %12.6g %+7.1f%% %3d/%-2d %5.0f%%  %s (spread %.1f%% / %.1f%%)\n",
				name, d.Name, j.Base.Median, j.Change.Median, 100*j.Diff, j.Wins, j.Pairs, 100**d.Bound, j.Verdict,
				100*j.Base.spread(), 100*j.Change.spread())
		}
	}
	if err := writeJSON(filepath.Join(out, "pairs.json"), res); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "# pairs in %s\n", out)
	return code
}

// sideRun runs BENCHMARK.json's command for one untraced run in the
// checkout at root and returns its result line. Exit status 1 (a check
// failed) still carries the line.
func (b *bench) sideRun(ctx context.Context, c *contract, root, workload string, seed uint64, stderr io.Writer) (line, error) {
	args := append(append([]string(nil), c.Command[1:]...), "--workload", workload, "--seed", u64(seed),
		"--seconds", strconv.Itoa(int(b.window/time.Second)), "--trace", "0")
	if b.quick {
		args = append(args, "-quick")
	}
	cmd := exec.CommandContext(ctx, c.Command[0], args...)
	cmd.Dir = root
	cmd.Stderr = stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return line{}, fmt.Errorf("%s seed %d in %s: %w", workload, seed, root, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var l line
	if err := json.Unmarshal(lines[len(lines)-1], &l); err != nil {
		return line{}, fmt.Errorf("%s seed %d in %s: last line is not a result: %w", workload, seed, root, err)
	}
	return l, nil
}
