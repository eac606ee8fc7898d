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
//	dpgrun -workload m88 -predictor stride
//	dpgrun -workload gcc -all          # all five predictors
//	dpgrun -trace damaged.dpg -strict=false   # resync past corrupt blocks
//	dpgrun -trace gcc.dpg -workers 8          # 8 concurrent decode workers
//
// Trace files are streamed from disk through the sequential model pass,
// which takes its static execution counts — and, in strict mode, the
// header's event count — from the trace footer probe (a sharded pre-pass
// over decoded blocks runs only when the probe cannot answer), so each
// predictor costs one decode and peak memory stays O(block·workers)
// regardless of trace size. When -trace
// names a directory or matches several files, the files fan out across a
// bounded worker pool (-parallel) with a per-file summary line per
// predictor; the exit status is non-zero if any file failed.
//
// By default a corrupt or truncated trace file is rejected with a typed
// error and a non-zero exit. With -strict=false the reader resynchronises
// past damaged blocks, analyses the surviving events, and prints a
// corruption summary (blocks skipped, bytes lost, truncation) to stderr.
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
	workers := flag.Int("workers", 0, "concurrent trace-decode workers per file (0 = all cores, 1 = sequential)")
	parallel := flag.Int("parallel", 0, "concurrent files in directory/glob mode (0 = all cores)")
	speculate := flag.Int("speculate", 0, "run the model pass epoch-speculatively with N predictor chains (0 = off, -1 = auto); results are identical, only faster")
	shards := flag.Int("shards", 0, "split speculative predictor state into N key shards per category, scaling chains to 4×N (0 = off, -1 = auto); implies -speculate, results are identical")
	merge := flag.Bool("merge", false, "directory mode: merge every file's Result into one exact aggregate report instead of per-file summaries")
	flag.Parse()

	// SIGINT/SIGTERM cancels the analysis through the streaming decode
	// loops: whatever finished is reported, the run exits cleanly with a
	// partial-results summary and status 130 (128+SIGINT by convention).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	kinds := predictor.AllKinds
	if !*all {
		k, ok := kindByName(*pred)
		if !ok {
			fail(fmt.Sprintf("unknown predictor %q", *pred))
		}
		kinds = []predictor.Kind{k}
	}

	switch {
	case *tracePat != "" && *workload != "":
		fail("use either -trace or -workload, not both")
	case *merge && *tracePat == "":
		fail("-merge needs -trace naming a directory of .dpg files")
	case *merge:
		runMerged(ctx, *tracePat, kinds, *strict, *workers, *parallel, *speculate, *shards)
	case *tracePat != "":
		paths := expandTraces(*tracePat)
		if len(paths) == 1 {
			runFile(ctx, paths[0], kinds, *graph, *strict, *workers, *speculate, *shards)
			return
		}
		runFiles(ctx, paths, kinds, *strict, *workers, *parallel, *speculate, *shards)
	case *workload != "":
		runWorkload(ctx, *workload, *rounds, kinds, *graph, *speculate, *shards)
	default:
		fail("missing -trace or -workload")
	}
}

// expandTraces resolves -trace into file paths: a directory becomes every
// *.dpg inside it, a glob pattern expands, and a plain path passes through.
func expandTraces(pat string) []string {
	if st, err := os.Stat(pat); err == nil && st.IsDir() {
		pat = filepath.Join(pat, "*.dpg")
	}
	paths, err := filepath.Glob(pat)
	if err != nil {
		fail(fmt.Sprintf("bad -trace pattern %q: %v", pat, err))
	}
	if len(paths) == 0 {
		fail(fmt.Sprintf("no trace files match %q", pat))
	}
	sort.Strings(paths)
	return paths
}

// fileOpts assembles the streaming options shared by both file modes.
func fileOpts(ctx context.Context, k predictor.Kind, graph int, strict bool, workers, speculate, shards int) []core.Option {
	opts := []core.Option{core.WithKind(k), core.WithWorkers(workers), core.WithContext(ctx)}
	if graph > 0 {
		opts = append(opts, core.WithGraphLimit(graph))
	}
	if !strict {
		opts = append(opts, core.WithLenientTrace())
	}
	opts = append(opts, specOpts(speculate, shards)...)
	return opts
}

// specOpts translates -speculate and -shards: 0 is off, negative is
// automatic, positive is explicit. -shards alone implies speculation.
func specOpts(speculate, shards int) []core.Option {
	var opts []core.Option
	if speculate != 0 {
		n := speculate
		if n < 0 {
			n = 0 // auto
		}
		opts = append(opts, core.WithSpeculation(n))
	}
	if shards != 0 {
		n := shards
		if n < 0 {
			n = 0 // auto
		}
		opts = append(opts, core.WithSpecShards(n))
	}
	return opts
}

// printSpecStats summarises a speculative run on stderr, out of band of
// the report (whose content is identical either way).
func printSpecStats(st dpg.SpecStats) {
	if st.Fallback {
		fmt.Fprintf(os.Stderr, "dpgrun: speculation: predictor has no checkpoint support, ran sequentially\n")
		return
	}
	sharding := ""
	if st.Shards > 1 {
		sharding = fmt.Sprintf(" over %d unit shards (%d-way)", st.Units, st.Shards)
	}
	fmt.Fprintf(os.Stderr, "dpgrun: speculation: %d epochs on %d chains%s, %d diverged, %d replayed (%d replay epochs), %d abandoned\n",
		st.Epochs, st.Chains, sharding, st.Diverged, st.Replayed, st.ReplayEpochs, st.Abandoned)
}

// runFile streams one trace file through the pass pipeline, once per
// predictor, printing the same header and per-predictor report as the
// workload mode.
func runFile(ctx context.Context, path string, kinds []predictor.Kind, graph int, strict bool, workers, speculate, shards int) {
	// The header needs the event and static counts. In strict mode the
	// footer probe answers them without decoding an event; for a v1 stream,
	// a damaged file or lenient input, where AnalyzeFile falls back to its
	// pre-pass anyway, the first predictor asks for the pre-pass summary.
	var events uint64
	static := -1
	if strict {
		if fi, err := trace.ScanFooterFile(path); err == nil {
			events, static = fi.Total, len(fi.Counts)
		}
	}
	for i, k := range kinds {
		var ps dpg.PreStats
		var st trace.Stats
		var ss dpg.SpecStats
		opts := append(fileOpts(ctx, k, graph, strict, workers, speculate, shards), core.WithTraceStats(&st))
		if i == 0 && static < 0 {
			opts = append(opts, core.WithPreStats(&ps))
		}
		if speculate != 0 || shards != 0 {
			opts = append(opts, core.WithSpecStats(&ss))
		}
		r, err := core.AnalyzeFile(path, opts...)
		if errors.Is(err, core.ErrAborted) {
			failInterrupted(i, len(kinds))
		}
		if err != nil {
			fail(err.Error())
		}
		if speculate != 0 || shards != 0 {
			printSpecStats(ss)
		}
		if i == 0 {
			if static < 0 {
				events, static = ps.Events, len(ps.StaticCount)
			}
			fmt.Printf("trace %s: %d dynamic instructions, %d static\n\n", r.Name, events, static)
			if !strict {
				printCorruption(st)
			}
		}
		printResult(r)
		if graph > 0 {
			report.WriteFragment(os.Stdout, r.Graph, nil)
		}
	}
}

// runFiles fans several trace files out across a worker pool, one
// AnalyzeFiles sweep per predictor, and prints per-file summary lines in
// file-major order. Any per-file failure turns into a non-zero exit after
// every file has been reported.
func runFiles(ctx context.Context, paths []string, kinds []predictor.Kind, strict bool, workers, parallel, speculate, shards int) {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	byKind := make([][]core.FileResult, len(kinds))
	for i, k := range kinds {
		// No WithSpecStats here: one options slice serves every concurrent
		// file, and a shared stats pointer would race.
		byKind[i] = core.AnalyzeFiles(paths, parallel, fileOpts(ctx, k, 0, strict, workers, speculate, shards)...)
	}
	failed, interrupted := 0, 0
	for fi, path := range paths {
		fmt.Printf("== %s ==\n", path)
		for ki, k := range kinds {
			fr := byKind[ki][fi]
			if errors.Is(fr.Err, core.ErrAborted) {
				interrupted++
				fmt.Printf("  %-10s INTERRUPTED\n", k)
				continue
			}
			if fr.Err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "dpgrun: %s (%s): %v\n", path, k, fr.Err)
				fmt.Printf("  %-10s ERROR (see stderr)\n", k)
				continue
			}
			row := analysis.Overall(fr.Res)
			fmt.Printf("  %-10s %12d events   gen %5.1f%%   prop %5.1f%%   term %5.1f%%   unpred %5.1f%%\n",
				k, fr.Res.Nodes, row.NodeGen+row.ArcGen, row.NodeProp+row.ArcProp,
				row.NodeTerm+row.ArcTerm, row.UnpredPct)
			if !strict && (fr.Stats.BlocksSkipped > 0 || fr.Stats.Truncated || fr.Stats.FooterLost) {
				fmt.Fprintf(os.Stderr, "dpgrun: %s: ", path)
				printCorruption(fr.Stats)
			}
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

// runMerged analyzes every .dpg file in a directory and reports one exact
// aggregate per predictor (core.AnalyzeDir): the merged Result is
// byte-identical to what a single analysis of the concatenated populations
// would report, regardless of fan-out, decode, or sharding configuration.
func runMerged(ctx context.Context, dir string, kinds []predictor.Kind, strict bool, workers, parallel, speculate, shards int) {
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		fail(fmt.Sprintf("-merge needs a directory of .dpg files; %q is not one", dir))
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	headerDone := false
	for i, k := range kinds {
		res, files, err := core.AnalyzeDir(dir, parallel, fileOpts(ctx, k, 0, strict, workers, speculate, shards)...)
		if errors.Is(err, core.ErrAborted) {
			failInterrupted(i, len(kinds))
		}
		if err != nil {
			fail(err.Error())
		}
		if !headerDone {
			headerDone = true
			fmt.Printf("merged %d trace file(s) from %s: %d dynamic instructions\n\n",
				len(files), dir, res.Nodes)
		}
		printResult(res)
	}
}

// runWorkload traces a built-in workload in memory and runs the model —
// the only dpgrun mode that materializes a trace (the generator produces
// one directly).
func runWorkload(ctx context.Context, name string, rounds int, kinds []predictor.Kind, graph, speculate, shards int) {
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
		var ss dpg.SpecStats
		opts := []core.Option{core.WithKind(k), core.WithGraphLimit(graph)}
		opts = append(opts, specOpts(speculate, shards)...)
		if speculate != 0 || shards != 0 {
			opts = append(opts, core.WithSpecStats(&ss))
		}
		res, err := core.RunTrace(t, opts...)
		if err != nil {
			fail(err.Error())
		}
		if speculate != 0 || shards != 0 {
			printSpecStats(ss)
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

func kindByName(name string) (predictor.Kind, bool) {
	return predictor.KindByName(name)
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

// printCorruption summarises what the lenient reader recovered (and lost).
func printCorruption(st trace.Stats) {
	if st.BlocksSkipped == 0 && !st.Truncated && !st.FooterLost {
		compressed := ""
		if st.BlocksCompressed > 0 {
			compressed = fmt.Sprintf(", %d compressed", st.BlocksCompressed)
		}
		fmt.Fprintf(os.Stderr, "dpgrun: trace intact (v%d, %d blocks%s, %d events)\n",
			st.Version, st.Blocks, compressed, st.Events)
		return
	}
	fmt.Fprintf(os.Stderr, "dpgrun: corruption summary (v%d): recovered %d events from %d blocks; skipped %d damaged region(s), %d bytes",
		st.Version, st.Events, st.Blocks, st.BlocksSkipped, st.BytesSkipped)
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
