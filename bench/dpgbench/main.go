// Command dpgbench is the repository's benchmark. It builds figures,
// dpgrun, dpgd and tracegen from the checkout, sets up each workload's
// inputs from a seed, measures the workload end to end as child processes,
// checks every output, and in a separate traced run times each layer's
// public calls in-process.
//
// One run of one workload, ending with a one-line JSON result:
//
//	dpgbench -workload suite -seed 1 -seconds 18 -trace 0
//
// Every workload, -runs untraced runs each plus one traced run, with
// medians and quartiles, results.json and spans.json written under -out:
//
//	dpgbench -seed 1 -runs 3 -out /tmp/dpgbench
//
// Whether two such result sets agree within BENCHMARK.json's bounds:
//
//	dpgbench -agree a/results.json b/results.json
//
// A change against its base checkout, in alternating runs of the two (ten
// pairs per workload by default), judged by the paired rule of judgePair:
//
//	dpgbench -pair ../base -seed 2 -out /tmp/dpgbench-pairs
//
// Run it from the repository root through bench/run.sh, which builds it
// and keeps every file it writes under .bench_build/.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point. Exit codes: 0 every check passed, 1 a
// check failed (the results are still printed), 2 the benchmark could not
// run (bad flags, no repository, a failed build or set-up).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dpgbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "", "run this workload once and end with its JSON result line (default: every workload, -runs times)")
	seed := fs.Uint64("seed", 1, "workload input seed")
	seconds := fs.Int("seconds", 0, "how long one run measures (default: run_seconds from BENCHMARK.json, 3 with -quick)")
	traced := fs.Int("trace", 0, "with -workload: 0 measures end to end, 1 runs the traced pass and reports per-layer metrics")
	runs := fs.Int("runs", 3, "without -workload: untraced runs per workload; each workload also gets one traced run")
	out := fs.String("out", "", "directory for results.json and spans.json, or for -pair's pairs.json (default: a new temporary directory)")
	quick := fs.Bool("quick", false, "smoke run: traces at 5% size, 3 s windows, one set-up per run")
	repo := fs.String("repo", ".", "repository root")
	bin := fs.String("bin", "", "directory to build the programs into (default: .bench_build/bin under -repo)")
	agree := fs.Bool("agree", false, "compare two results.json files, given as arguments, within BENCHMARK.json's bounds")
	pairWith := fs.String("pair", "", "compare this checkout with the base checkout in this directory in alternating runs (-workload limits it to one workload)")
	pairs := fs.Int("pairs", 10, "with -pair: runs of each side per workload")
	result := fs.String("result", "", "with -workload: also write the full run record, spans included, as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dpgbench:", err)
		return 2
	}

	root, err := filepath.Abs(*repo)
	if err != nil {
		return fail(err)
	}
	c, err := loadContract(root)
	if err != nil {
		return fail(err)
	}
	if *agree {
		if fs.NArg() != 2 {
			return fail(errors.New("-agree takes two results.json files"))
		}
		return agreeFiles(c, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 {
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	if *traced != 0 && *traced != 1 {
		return fail(fmt.Errorf("-trace %d: want 0 or 1", *traced))
	}
	if *only != "" && !slices.Contains(c.workloadNames(), *only) {
		return fail(fmt.Errorf("unknown workload %q (BENCHMARK.json declares %s)", *only, strings.Join(c.workloadNames(), ", ")))
	}
	for _, name := range c.workloadNames() {
		if _, ok := workloadByName(name); !ok {
			return fail(fmt.Errorf("BENCHMARK.json workload %q has no implementation", name))
		}
	}

	b := &bench{repo: root, seed: *seed, scale: 1, nproc: runtime.NumCPU(), setupReps: 3}
	b.window = time.Duration(c.RunSeconds) * time.Second
	if *quick {
		b.quick, b.scale, b.window, b.setupReps = true, quickScale, 3*time.Second, 1
	}
	if *seconds > 0 {
		b.window = time.Duration(*seconds) * time.Second
	}
	if *pairWith != "" {
		if *pairs < 1 {
			return fail(fmt.Errorf("-pairs %d: want at least 1", *pairs))
		}
		names := c.workloadNames()
		if *only != "" {
			names = []string{*only}
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return b.runPairs(ctx, c, *pairWith, *pairs, names, *out, stdout, stderr)
	}
	b.bin = *bin
	if b.bin == "" {
		b.bin = filepath.Join(root, ".bench_build", "bin")
	}
	if b.bin, err = filepath.Abs(b.bin); err != nil {
		return fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(b.bin, 0o755); err != nil {
		return fail(err)
	}
	if err := buildPrograms(ctx, root, b.bin); err != nil {
		return fail(err)
	}
	scratch := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return fail(err)
	}
	if b.work, err = os.MkdirTemp(scratch, "work-"); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(b.work)

	if *only != "" {
		w, _ := workloadByName(*only)
		r, err := b.runOnce(ctx, w, *traced == 1)
		if err != nil {
			return fail(err)
		}
		if err := c.checkEmitted(r.Metrics, r.Traced); err != nil {
			return fail(err)
		}
		if *result != "" {
			if err := writeJSON(*result, r); err != nil {
				return fail(err)
			}
		}
		printRun(stdout, r, c)
		enc, err := json.Marshal(r.line())
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", enc)
		if !r.Correct {
			return 1
		}
		return 0
	}
	if *runs < 1 {
		return fail(fmt.Errorf("-runs %d: want at least 1", *runs))
	}
	return b.runAll(ctx, c, *runs, *out, stdout, stderr)
}

// runOnce is one run of one workload: the golden pre-flight, then an
// untraced run (end-to-end metrics) or a traced one (per-layer metrics).
// Pre-flight mismatches are tallied, not fatal.
func (b *bench) runOnce(ctx context.Context, w *workload, traced bool) (*runResult, error) {
	var t tally
	for _, err := range b.preflight(ctx) {
		t.record(err)
	}
	switch {
	case traced:
		return b.runTraced(ctx, w, &t)
	case w.serve:
		return b.runServe(ctx, w, &t)
	default:
		return b.runCLI(ctx, w, &t)
	}
}

// printRun prints one line per metric, "<workload> <metric> <value>
// <unit>", in BENCHMARK.json's order, then the run's notes, checked
// operations and failures as "#" lines.
func printRun(w io.Writer, r *runResult, c *contract) {
	for _, d := range c.declared(r.Traced) {
		v := r.Metrics[d.Name]
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, d.Name, fmtFloat(v.Value), v.Unit)
	}
	if r.Traced {
		for _, phase := range []string{"mirror", "replay"} {
			for _, l := range sortedKeys(r.SelfMS[phase]) {
				fmt.Fprintf(w, "# %s %s self_ms %s %s\n", r.Workload, phase, l, fmtFloat(r.SelfMS[phase][l]))
			}
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# %s %s\n", r.Workload, n)
	}
	fmt.Fprintf(w, "# %s fail_frac %s (%d of %d checked operations failed)\n", r.Workload, fmtFloat(r.failFrac()), r.Failed, r.Attempted)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "# %s FAILED %s\n", r.Workload, e)
	}
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// workloadResults is one workload's section of results.json.
type workloadResults struct {
	Runs    []*runResult             `json:"runs"`
	Summary map[string]metricSummary `json:"summary"`
	Traced  *runResult               `json:"traced"`
}

type metricSummary struct {
	summary
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread"`
}

type resultsFile struct {
	Meta      map[string]any              `json:"meta"`
	Correct   bool                        `json:"correct"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

// runAll runs every workload runs times untraced and once traced,
// summarises each end-to-end metric across the runs, and writes
// results.json and spans.json under out. Each run is a dpgbench process of
// its own, as when the runs are started one by one: the kernel counts a
// parent's peak RSS at spawn time into its child's, so a parent that had
// grown in an earlier run would inflate every later measurement.
func (b *bench) runAll(ctx context.Context, c *contract, runs int, out string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dpgbench:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	if out == "" {
		out, err = os.MkdirTemp("", "dpgbench-")
	} else {
		err = os.MkdirAll(out, 0o755)
	}
	if err != nil {
		return fail(err)
	}
	res := resultsFile{Meta: b.meta(runs), Correct: true, Workloads: map[string]*workloadResults{}}
	spans := map[string][]span{}
	sums := map[string]string{}
	for _, name := range c.workloadNames() {
		wr := &workloadResults{Summary: map[string]metricSummary{}}
		res.Workloads[name] = wr
		for i := 0; i < runs; i++ {
			r, err := b.spawnRun(ctx, exe, name, false, stdout, stderr)
			if err != nil {
				return fail(err)
			}
			wr.Runs = append(wr.Runs, r)
			res.Correct = res.Correct && r.Correct
			if i == 0 {
				sums[name] = r.OutputSHA256
			}
		}
		for _, d := range c.EndToEnd {
			var vals []float64
			for _, r := range wr.Runs {
				vals = append(vals, r.Metrics[d.Name].Value)
			}
			s := summarize(vals)
			wr.Summary[d.Name] = metricSummary{summary: s, Unit: d.Unit, Spread: s.spread()}
			fmt.Fprintf(stdout, "%s %s %s %s # median of %d runs, q1 %s q3 %s, spread %.3f (bound %g)\n",
				name, d.Name, fmtFloat(s.Median), d.Unit, len(vals), fmtFloat(s.Q1), fmtFloat(s.Q3), s.spread(), *d.Bound)
		}
		r, err := b.spawnRun(ctx, exe, name, true, stdout, stderr)
		if err != nil {
			return fail(err)
		}
		spans[name], r.Spans = r.Spans, nil
		wr.Traced = r
		res.Correct = res.Correct && r.Correct
	}
	// Both engines must print the same figures.
	if a, ok := sums["suite"]; ok {
		if bsum, ok := sums["suite-tracedir"]; ok && a != bsum {
			res.Correct = false
			fmt.Fprintf(stdout, "# FAILED suite and suite-tracedir printed different figures (sha256 %s vs %s)\n", a, bsum)
		}
	}
	if err := writeJSON(filepath.Join(out, "results.json"), res); err != nil {
		return fail(err)
	}
	if err := writeJSON(filepath.Join(out, "spans.json"), spans); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "# results in %s\n", out)
	if !res.Correct {
		return 1
	}
	return 0
}

// spawnRun runs one run of a workload in a child dpgbench, which prints
// its lines to stdout, and reads back the run's record.
func (b *bench) spawnRun(ctx context.Context, exe, workload string, traced bool, stdout, stderr io.Writer) (*runResult, error) {
	path := filepath.Join(b.work, "run.json")
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"-repo", b.repo, "-bin", b.bin, "-workload", workload, "-seed", u64(b.seed),
		"-seconds", strconv.Itoa(int(b.window / time.Second)), "-trace", trace, "-result", path}
	if b.quick {
		args = append(args, "-quick")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	// Exit status 1 means a check failed; the record is still written.
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return nil, fmt.Errorf("%s run: %w", workload, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	var r runResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s run record: %w", workload, err)
	}
	return &r, nil
}

// meta records the host and settings the results were taken with.
func (b *bench) meta(runs int) map[string]any {
	return map[string]any{
		"nproc":      b.nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"seed":       b.seed,
		"runs":       runs,
		"seconds":    b.window.Seconds(),
		"scale":      b.scale,
		"started":    time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
