// Command dpgrun runs the predictability model over traces — a trace file
// produced by cmd/tracegen (or any external producer of the format), a
// whole directory or glob of trace files, or a built-in workload — and
// prints the classification summary.
//
// Usage:
//
//	dpgrun -trace gcc.dpg -predictor context
//	dpgrun -trace traces/            # every *.dpg in the directory
//	dpgrun -trace 'traces/*.dpg' -all -parallel 4
//	dpgrun -trace traces/ -merge     # one aggregate over the directory
//	dpgrun -workload m88 -predictor stride
//	dpgrun -workload gcc -all          # all five predictors
//	dpgrun -trace damaged.dpg -strict=false   # resync past corrupt blocks
//	dpgrun -trace gcc.dpg -workers 8          # 8 concurrent decode workers
//
// A single trace file is streamed from disk once for all the predictors
// asked for: the static execution counts — and, in strict mode, the
// header's event count — come from the trace footer probe (an in-order
// pre-pass runs only when the probe cannot answer), then one decode feeds
// every predictor's model pass at once, each on its own goroutine, so
// -all costs one decode and peak memory stays O(block·workers) plus the
// models' tables regardless of trace size. -graph needs a single trace
// file or -workload.
// When -trace names a directory or matches several files, the files fan
// out across a bounded worker pool (-parallel), each decoded once for all
// the predictors, with a per-file summary line per predictor; the exit
// status is non-zero if any file failed. A directory means its *.dpg
// files, subdirectories skipped. With -merge, a directory's files fold
// into one exact aggregate report per predictor, again one decode per
// file.
//
// By default a corrupt or truncated trace file is rejected with a typed
// error and a non-zero exit. With -strict=false the reader resynchronises
// past damaged blocks, analyses the surviving events, and prints a
// corruption summary (blocks skipped, bytes lost, truncation) to stderr;
// a file with no surviving event fails after its summary.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	tracePat := flag.String("trace", "", "trace file, directory, or glob to analyse")
	workload := flag.String("workload", "", "built-in workload to trace and analyse")
	rounds := flag.Int("rounds", 0, "rounds parameter for -workload (0 = default)")
	pred := flag.String("predictor", "context", "last-value | stride | context | tage | ldbp")
	all := flag.Bool("all", false, "run every predictor (last-value, stride, context, tage, ldbp)")
	graph := flag.Int("graph", 0, "print the labeled DPG fragment for the first N instructions (paper Fig. 3)")
	strict := flag.Bool("strict", true, "reject corrupt traces; -strict=false resyncs past damage and summarises it")
	workers := flag.Int("workers", 0, "concurrent trace-decode workers per file (0 = all cores, 1 = decode inline)")
	parallel := flag.Int("parallel", 0, "concurrent files in directory/glob mode (0 = all cores)")
	merge := flag.Bool("merge", false, "directory mode: merge every file's Result into one exact aggregate report instead of per-file summaries")
	flag.Parse()

	// SIGINT/SIGTERM cancels the analysis through the streaming decode
	// loops: whatever finished is reported, the run exits cleanly with a
	// partial-results summary and status 130 (128+SIGINT by convention).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	kinds := predictor.AllKinds
	if !*all {
		k, ok := predictor.KindByName(*pred)
		if !ok {
			fail(fmt.Sprintf("unknown predictor %q", *pred))
		}
		kinds = []predictor.Kind{k}
	}

	switch {
	case *tracePat != "" && *workload != "":
		fail("use either -trace or -workload, not both")
	case *rounds != 0 && *workload == "":
		fail("-rounds applies only to -workload")
	case *merge && *tracePat == "":
		fail("-merge needs -trace naming a directory of .dpg files")
	case *merge:
		oneTraceFlags(*graph)
		runMerged(ctx, *tracePat, kinds, *strict, *workers, *parallel)
	case *tracePat != "":
		paths := expandTraces(*tracePat)
		if len(paths) == 1 {
			runFile(ctx, paths[0], kinds, *graph, *strict, *workers)
			return
		}
		oneTraceFlags(*graph)
		runFiles(ctx, paths, kinds, *strict, *workers, *parallel)
	case *workload != "":
		runWorkload(ctx, *workload, *rounds, kinds, *graph)
	default:
		fail("missing -trace or -workload")
	}
}

// oneTraceFlags rejects the flag only single-trace modes honour: -graph
// (there is no single trace to draw).
func oneTraceFlags(graph int) {
	if graph > 0 {
		fail("-graph needs a single trace file or -workload, not several files or -merge")
	}
}

// expandTraces resolves -trace into file paths: a directory becomes its
// trace files (core.TraceFiles, the listing -merge uses too), a glob
// pattern expands, and a plain path passes through.
func expandTraces(pat string) []string {
	var paths []string
	var err error
	if st, serr := os.Stat(pat); serr == nil && st.IsDir() {
		paths, err = core.TraceFiles(pat)
	} else {
		paths, err = filepath.Glob(pat)
	}
	if err != nil {
		fail(fmt.Sprintf("bad -trace pattern %q: %v", pat, err))
	}
	if len(paths) == 0 {
		fail(fmt.Sprintf("no trace files match %q", pat))
	}
	sort.Strings(paths)
	return paths
}

// fileOpts assembles the streaming options shared by every file mode.
func fileOpts(ctx context.Context, strict bool, workers int) []core.Option {
	opts := []core.Option{core.WithWorkers(workers), core.WithContext(ctx)}
	if !strict {
		opts = append(opts, core.WithLenientTrace())
	}
	return opts
}

// runFile streams one trace file through the model for every predictor,
// printing the same header and per-predictor report as the workload mode.
// One decode feeds every predictor's model pass at once
// (core.AnalyzeFileKinds).
func runFile(ctx context.Context, path string, kinds []predictor.Kind, graph int, strict bool, workers int) {
	// The header needs the event and static counts. In strict mode the
	// footer probe answers them without decoding an event; for a damaged
	// file or lenient input, where the analysis runs its pre-pass anyway,
	// the pre-pass summary answers them.
	var events uint64
	static := -1
	if strict {
		if fi, err := trace.ScanFooterFile(path); err == nil {
			events, static = fi.Total, len(fi.Counts)
		}
	}
	var ps dpg.PreStats
	var st trace.Stats
	opts := append(fileOpts(ctx, strict, workers), core.WithGraphLimit(graph), core.WithTraceStats(&st))
	if static < 0 {
		opts = append(opts, core.WithPreStats(&ps))
	}
	rs, err := core.AnalyzeFileKinds(path, kinds, opts...)
	if errors.Is(err, core.ErrAborted) {
		failInterrupted(0, len(kinds))
	}
	if err == nil && !strict && st.Events == 0 {
		printCorruption("dpgrun: ", st)
		err = errNoEvents
	}
	if err != nil {
		fail(err.Error())
	}
	if static < 0 {
		events, static = ps.Events, len(ps.StaticCount)
	}
	fmt.Printf("trace %s: %d dynamic instructions, %d static\n\n", rs[0].Name, events, static)
	if !strict {
		printCorruption("dpgrun: ", st)
	}
	for _, r := range rs {
		printResult(r)
		if graph > 0 {
			report.WriteFragment(os.Stdout, r.Graph, nil)
		}
	}
}

// runFiles fans several trace files out across a worker pool in one
// AnalyzeFiles call, each file decoded once for every predictor, and
// prints per-file summary lines in file-major order. Any per-file failure
// turns into a non-zero exit after every file has been reported; the
// summary counts one run per (file, predictor).
func runFiles(ctx context.Context, paths []string, kinds []predictor.Kind, strict bool, workers, parallel int) {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	failed, interrupted := 0, 0
	for _, fr := range core.AnalyzeFiles(paths, kinds, parallel, fileOpts(ctx, strict, workers)...) {
		fmt.Printf("== %s ==\n", fr.Path)
		if fr.Err == nil && !strict && fr.Stats.Events == 0 {
			printCorruption("dpgrun: "+fr.Path+": ", fr.Stats)
			fr.Err = errNoEvents
		}
		switch {
		case errors.Is(fr.Err, core.ErrAborted):
			interrupted += len(kinds)
			for _, k := range kinds {
				fmt.Printf("  %-10s INTERRUPTED\n", k)
			}
			continue
		case fr.Err != nil:
			failed += len(kinds)
			fmt.Fprintf(os.Stderr, "dpgrun: %s: %v\n", fr.Path, fr.Err)
			for _, k := range kinds {
				fmt.Printf("  %-10s ERROR (see stderr)\n", k)
			}
			continue
		}
		for i, k := range kinds {
			res := fr.Res[i]
			row := analysis.Overall(res)
			fmt.Printf("  %-10s %12d events   gen %5.1f%%   prop %5.1f%%   term %5.1f%%   unpred %5.1f%%\n",
				k, res.Nodes, row.NodeGen+row.ArcGen, row.NodeProp+row.ArcProp,
				row.NodeTerm+row.ArcTerm, row.UnpredPct)
		}
		if !strict && (fr.Stats.BlocksSkipped > 0 || fr.Stats.Truncated || fr.Stats.FooterLost) {
			printCorruption("dpgrun: "+fr.Path+": ", fr.Stats)
		}
	}
	total := len(paths) * len(kinds)
	if interrupted > 0 {
		fmt.Printf("\ninterrupted: %d of %d predictor run(s) completed, %d failure(s), %d cancelled\n",
			total-failed-interrupted, total, failed, interrupted)
		os.Exit(130)
	}
	fmt.Printf("\n%d file(s), %d predictor run(s), %d failure(s)\n", len(paths), total, failed)
	if failed > 0 {
		os.Exit(1)
	}
}

// runMerged analyzes every trace file in a directory in one
// core.AnalyzeDir call, each file decoded once for every predictor, and
// reports one exact aggregate per predictor: each merged Result is
// byte-identical to what a single analysis of the concatenated
// populations would report, regardless of fan-out or decode
// configuration.
func runMerged(ctx context.Context, dir string, kinds []predictor.Kind, strict bool, workers, parallel int) {
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		fail(fmt.Sprintf("-merge needs a directory of .dpg files; %q is not one", dir))
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	merged, files, err := core.AnalyzeDir(dir, kinds, parallel, fileOpts(ctx, strict, workers)...)
	if errors.Is(err, core.ErrAborted) {
		failInterrupted(0, len(kinds))
	}
	if err != nil {
		fail(err.Error())
	}
	fmt.Printf("merged %d trace file(s) from %s: %d dynamic instructions\n\n",
		len(files), dir, merged[0].Nodes)
	for _, res := range merged {
		printResult(res)
	}
}

// runWorkload traces a built-in workload in memory and runs the model —
// the only dpgrun mode that materializes a trace (the generator produces
// one directly).
func runWorkload(ctx context.Context, name string, rounds int, kinds []predictor.Kind, graph int) {
	w, ok := workloads.ByName(name)
	if !ok {
		fail(fmt.Sprintf("unknown workload %q; known: %v", name, workloads.Names()))
	}
	r := rounds
	if r == 0 {
		r = w.Rounds
	}
	t, err := w.TraceRounds(r, 1)
	if err != nil {
		fail(err.Error())
	}
	fmt.Printf("trace %s: %d dynamic instructions, %d static\n\n", t.Name, t.Len(), t.NumStatic)
	for i, k := range kinds {
		// The in-memory model pass has no cancellation probes; honor the
		// signal between predictor runs.
		if ctx.Err() != nil {
			failInterrupted(i, len(kinds))
		}
		res, err := core.RunTrace(t, core.WithKind(k), core.WithGraphLimit(graph))
		if err != nil {
			fail(err.Error())
		}
		printResult(res)
		if graph > 0 {
			var disasm func(pc uint32) string
			if prog, err := w.Program(); err == nil {
				disasm = func(pc uint32) string {
					if int(pc) < len(prog.Instrs) {
						return prog.Instrs[pc].String()
					}
					return "?"
				}
			}
			report.WriteFragment(os.Stdout, res.Graph, disasm)
		}
	}
}

func printResult(r *dpg.Result) {
	fmt.Printf("== predictor: %s ==\n", r.Predictor)
	report.WriteTable1(os.Stdout, analysis.Table1([]*dpg.Result{r}))
	report.WriteOverall(os.Stdout, []analysis.OverallRow{analysis.Overall(r)})
	report.WriteGeneration(os.Stdout, []analysis.GenRow{analysis.Generation(r)})
	report.WritePropagation(os.Stdout, []analysis.PropRow{analysis.Propagation(r)})
	report.WriteTermination(os.Stdout, []analysis.TermRow{analysis.Termination(r)})
	report.WriteBranches(os.Stdout, []analysis.BranchRow{analysis.BranchClasses(r)})
}

// printCorruption summarises on stderr, after prefix, what the lenient
// reader recovered (and lost).
func printCorruption(prefix string, st trace.Stats) {
	if st.BlocksSkipped == 0 && !st.Truncated && !st.FooterLost {
		compressed := ""
		if st.BlocksCompressed > 0 {
			compressed = fmt.Sprintf(", %d compressed", st.BlocksCompressed)
		}
		fmt.Fprintf(os.Stderr, "%strace intact (v%d, %d blocks%s, %d events)\n",
			prefix, st.Version, st.Blocks, compressed, st.Events)
		return
	}
	fmt.Fprintf(os.Stderr, "%scorruption summary (v%d): recovered %d events from %d blocks; skipped %d damaged region(s), %d bytes",
		prefix, st.Version, st.Events, st.Blocks, st.BlocksSkipped, st.BytesSkipped)
	if st.Truncated {
		fmt.Fprint(os.Stderr, "; stream truncated")
	}
	if st.FooterLost {
		fmt.Fprint(os.Stderr, "; footer lost (static counts rebuilt from surviving events)")
	}
	if st.EventsDeclared > 0 && st.EventsDeclared != st.Events {
		fmt.Fprintf(os.Stderr, "; footer declared %d events (%d lost)",
			st.EventsDeclared, st.EventsDeclared-st.Events)
	}
	fmt.Fprintln(os.Stderr)
}

// errNoEvents fails a lenient run that recovered nothing to analyse.
var errNoEvents = errors.New("lenient decoding recovered no events")

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "dpgrun:", msg)
	os.Exit(1)
}

// failInterrupted reports a signal-driven partial run: done of total
// predictor runs finished before the interrupt. Exit 130 follows the
// 128+SIGINT shell convention for a clean signal exit.
func failInterrupted(done, total int) {
	fmt.Fprintf(os.Stderr, "dpgrun: interrupted; partial results: %d of %d predictor run(s) completed\n", done, total)
	os.Exit(130)
}
