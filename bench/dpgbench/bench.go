package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// bench holds one invocation's settings and directories.
type bench struct {
	repo      string        // repository root: cmd/, BENCHMARK.json, goldens
	bin       string        // built programs
	work      string        // this invocation's inputs and stores; removed at exit
	seed      uint64        // workload input seed
	scale     float64       // workload size multiplier: 1, or quickScale
	window    time.Duration // how long one run measures
	nproc     int
	setupReps int  // set-ups per run; setup_s is their median
	quick     bool // smoke settings: quickScale traces, 3 s windows, one set-up
}

const (
	// quickScale sizes the -quick smoke run's traces.
	quickScale = 0.05
	// bigRounds makes bigtrace's mgr trace 2.54M events (49.8 MB): long
	// enough that predictor construction is below 1% of a model run.
	bigRounds = 600
	// serveRate is the open-loop arrival rate, about 60% of what dpgd
	// sustains on two cores with full-size traces.
	serveRate = 6.0
	// repeatEvery makes every fifth request repeat an earlier (trace,
	// predictor) pair, so 20% of requests can be served from the cache.
	repeatEvery = 5
	// sampleEvents sizes the layer replay: whole inputs, in order, until
	// this many events are in the sample (scaled with the traces).
	sampleEvents = 500_000
)

func (b *bench) prog(name string) string { return filepath.Join(b.bin, name) }

// input is one trace a workload is built from: a built-in workload run at
// a rounds setting and seed, written to file when the workload reads its
// inputs from disk.
type input struct {
	workload string
	rounds   int
	seed     uint64
	file     string
}

// rounds sizes a workload the way figures does: default rounds times the
// scale, at least 2.
func (b *bench) rounds(w *workloads.Workload) int {
	return max(int(float64(w.Rounds)*b.scale), 2)
}

// corpus lists the extended figure corpus in the suite's order: integer,
// float, graph.
func corpus() []*workloads.Workload {
	return slices.Concat(workloads.Integer(), workloads.Float(), workloads.Graph())
}

// suiteInputs are the fifteen traces the figure suite models.
func (b *bench) suiteInputs() []input {
	var out []input
	for _, w := range corpus() {
		out = append(out, input{w.Name, b.rounds(w), b.seed, w.Name + ".dpg"})
	}
	return out
}

// bigInputs is bigtrace's one mgr trace. mgr's input values come from the
// seed and its length does not, so every seed measures the same amount of
// work.
func (b *bench) bigInputs() []input {
	return []input{{"mgr", max(int(bigRounds*b.scale), 2), b.seed, "big.dpg"}}
}

// serveInputs are the thirty distinct uploads of the serve workload: each
// corpus workload at seeds S and S+1. Workloads whose input ignores the
// seed (gcc, m88, xli, app) vary their rounds with it instead, by up to
// two, so the thirty digests stay distinct and change with the seed.
func (b *bench) serveInputs() []input {
	var out []input
	for _, w := range corpus() {
		r := b.rounds(w)
		fixed := slices.Equal(w.Input(r, b.seed), w.Input(r, b.seed+1))
		for v := uint64(0); v < 2; v++ {
			in := input{w.Name, r, b.seed + v, fmt.Sprintf("%s.%d.dpg", w.Name, v)}
			if fixed {
				in.rounds = r + int((b.seed+v)%3)
			}
			out = append(out, in)
		}
	}
	return out
}

// workload is one benchmark workload. Set-up writes its inputs with
// tracegen. The command-line workloads run command as a child process once
// per operation; serve has its own loop.
type workload struct {
	name    string
	inputs  func(b *bench) []input
	serve   bool
	command func(b *bench, dir string) []string // program path, then arguments
}

var workloadDefs = []*workload{
	{
		// figures generates its inputs in memory; the files set-up writes
		// are for the check, which models them in-process.
		name:   "suite",
		inputs: (*bench).suiteInputs,
		command: func(b *bench, _ string) []string {
			return []string{b.prog("figures"), "-seed", u64(b.seed), "-parallel", strconv.Itoa(b.nproc), "-scale", fmtFloat(b.scale)}
		},
	},
	{
		name:   "suite-tracedir",
		inputs: (*bench).suiteInputs,
		command: func(b *bench, dir string) []string {
			return []string{b.prog("figures"), "-seed", u64(b.seed), "-parallel", strconv.Itoa(b.nproc), "-scale", fmtFloat(b.scale), "-tracedir", dir}
		},
	},
	{
		name:   "bigtrace",
		inputs: (*bench).bigInputs,
		command: func(b *bench, dir string) []string {
			return []string{b.prog("dpgrun"), "-trace", filepath.Join(dir, "big.dpg"), "-all"}
		},
	},
	{
		name:   "serve",
		inputs: (*bench).serveInputs,
		serve:  true,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func u64(v uint64) string { return strconv.FormatUint(v, 10) }

// tally counts checked operations — program runs, requests, pre-flight and
// reference checks — and those that failed or produced wrong output.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.errs = append(t.errs, err.Error())
	}
}

// prepared is what one set-up produced.
type prepared struct {
	dir    string   // where the inputs were written
	inputs []input  // the workload's inputs
	events []uint64 // each input's event count, as tracegen reported it
	server *dpgd    // serve only
}

// setup does one complete set-up, the part setup_s times: the workload's
// inputs, then (for serve) a server ready to take requests.
func (b *bench) setup(ctx context.Context, w *workload, rep int) (*prepared, error) {
	p := &prepared{dir: filepath.Join(b.work, w.name), inputs: w.inputs(b)}
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if p.events, err = b.writeTraces(ctx, p.dir, p.inputs); err != nil {
		return nil, err
	}
	if w.serve {
		store := filepath.Join(b.work, fmt.Sprintf("store-%d", rep))
		if p.server, err = startDpgd(ctx, b.bin, store); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// goldenIDs are the figures pinned by cmd/figures/testdata at goldenScale.
var goldenIDs = []string{"fig5", "fig9", "fig13"}

const goldenScale = "0.02"

// preflight checks figures against the committed goldens once per run,
// before set-up and outside its timing, one figures process per golden,
// all at once. It returns one result per golden.
func (b *bench) preflight(ctx context.Context) []error {
	errs := make([]error, len(goldenIDs))
	var wg sync.WaitGroup
	for i, id := range goldenIDs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			golden := filepath.Join("cmd", "figures", "testdata", id+".golden")
			want, err := os.ReadFile(filepath.Join(b.repo, golden))
			if err != nil {
				errs[i] = fmt.Errorf("pre-flight: %w", err)
				return
			}
			res, err := runChild(ctx, b.repo, b.prog("figures"), "-scale", goldenScale, "-seed", "1", "-experiment", id, "-parallel", strconv.Itoa(b.nproc))
			switch {
			case err != nil:
				errs[i] = fmt.Errorf("pre-flight: %w", err)
			case !bytes.Equal(res.stdout, want):
				errs[i] = fmt.Errorf("pre-flight: figures -experiment %s -scale %s differs from %s", id, goldenScale, golden)
			}
		}()
	}
	wg.Wait()
	return errs
}

// writeTraces runs tracegen for every input into dir, nproc at a time, and
// returns the event counts tracegen reports.
func (b *bench) writeTraces(ctx context.Context, dir string, ins []input) ([]uint64, error) {
	events := make([]uint64, len(ins))
	errs := make([]error, len(ins))
	sem := make(chan struct{}, b.nproc)
	var wg sync.WaitGroup
	for i, in := range ins {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			res, err := runChild(ctx, b.repo, b.prog("tracegen"), "-workload", in.workload,
				"-rounds", strconv.Itoa(in.rounds), "-seed", u64(in.seed), "-o", filepath.Join(dir, in.file))
			if err != nil {
				errs[i] = err
				return
			}
			// "wrote PATH: N dynamic instructions, ..."
			f := strings.Fields(string(res.stdout))
			if len(f) < 3 {
				errs[i] = fmt.Errorf("tracegen %s: unexpected output %q", in.file, res.stdout)
				return
			}
			events[i], errs[i] = strconv.ParseUint(f[2], 10, 64)
		}()
	}
	wg.Wait()
	return events, errors.Join(errs...)
}

// checker validates one operation's standard output.
type checker func(out []byte) error

// sameAs wraps a check with run-to-run determinism: every output must
// equal the first one that passed.
func sameAs(check checker) checker {
	var first []byte
	return func(out []byte) error {
		if check != nil {
			if err := check(out); err != nil {
				return err
			}
		}
		if first == nil {
			first = out
			return nil
		}
		if !bytes.Equal(out, first) {
			return fmt.Errorf("output differs from the run's first output (sha256 %s vs %s)", sum(out), sum(first))
		}
		return nil
	}
}

func sum(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// verifier builds the check for a command-line workload's outputs. Every
// output must match the seed-1 reference (when running full size at seed
// 1) and the run's first output. Each figures engine must open with the
// Table 1 the other source gives: suite with Table 1 modelled in-process
// from the files tracegen wrote, suite-tracedir with the in-memory
// engine's. bigtrace must open with the trace's event count and the
// in-process last-value model. Building a reference is itself a checked
// operation.
func (b *bench) verifier(ctx context.Context, w *workload, p *prepared, t *tally) checker {
	var checks []checker
	if ref, ok := seed1SHA256[w.name]; ok && b.seed == 1 && b.scale == 1 {
		checks = append(checks, func(out []byte) error {
			if got := sum(out); got != ref {
				return fmt.Errorf("output sha256 %s, seed-1 reference %s", got, ref)
			}
			return nil
		})
	}
	var prefix []byte
	var err error
	switch w.name {
	case "suite":
		prefix, err = b.fileTable1(p.dir)
	case "suite-tracedir":
		prefix, err = b.table1(ctx)
	case "bigtrace":
		prefix, err = bigtracePrefix(p.inputs[0], p.events[0])
	}
	if prefix != nil || err != nil {
		t.record(err)
		checks = append(checks, func(out []byte) error {
			if err != nil {
				return errors.New("no reference output")
			}
			if !bytes.HasPrefix(out, prefix) {
				return fmt.Errorf("output does not open with the reference (%d bytes)", len(prefix))
			}
			return nil
		})
	}
	return sameAs(func(out []byte) error {
		for _, c := range checks {
			if err := c(out); err != nil {
				return err
			}
		}
		return nil
	})
}

// table1 is Table 1 from the in-memory engine: the DPG shape of every
// corpus trace under the last-value model.
func (b *bench) table1(ctx context.Context) ([]byte, error) {
	res, err := runChild(ctx, b.repo, b.prog("figures"), "-experiment", "table1", "-seed", u64(b.seed),
		"-parallel", strconv.Itoa(b.nproc), "-scale", fmtFloat(b.scale))
	return res.stdout, err
}

// fileTable1 is Table 1 modelled in-process from the trace files set-up
// wrote to dir: the suite's in-memory engine, fed the decoded files
// instead of its own generator.
func (b *bench) fileTable1(dir string) ([]byte, error) {
	s := core.NewSuite(core.SuiteConfig{Scale: b.scale, Seed: b.seed,
		TraceSource: func(name string, _ int, _ uint64) (*trace.Trace, error) {
			return trace.ReadFile(filepath.Join(dir, name+".dpg"))
		}})
	var buf bytes.Buffer
	err := s.Run("table1", &buf)
	return buf.Bytes(), err
}

// bigtracePrefix is what dpgrun -all must print first for the input: the
// header with the event count tracegen reported, then the last-value
// section, modelled in-process on the trace generated in memory.
func bigtracePrefix(in input, events uint64) ([]byte, error) {
	w, ok := workloads.ByName(in.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", in.workload)
	}
	tr, err := w.TraceRounds(in.rounds, in.seed)
	if err != nil {
		return nil, err
	}
	if uint64(len(tr.Events)) != events {
		return nil, fmt.Errorf("tracegen wrote %d events, the generator yields %d", events, len(tr.Events))
	}
	res, err := core.RunTrace(tr, core.WithKind(predictor.KindLast))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "trace %s: %d dynamic instructions, %d static\n\n", tr.Name, len(tr.Events), len(tr.StaticCount))
	renderResult(&buf, res)
	return buf.Bytes(), nil
}

// renderResult writes one predictor's report the way dpgrun does.
func renderResult(buf *bytes.Buffer, r *dpg.Result) {
	fmt.Fprintf(buf, "== predictor: %s ==\n", r.Predictor)
	report.WriteTable1(buf, analysis.Table1([]*dpg.Result{r}))
	report.WriteOverall(buf, []analysis.OverallRow{analysis.Overall(r)})
	report.WriteGeneration(buf, []analysis.GenRow{analysis.Generation(r)})
	report.WritePropagation(buf, []analysis.PropRow{analysis.Propagation(r)})
	report.WriteTermination(buf, []analysis.TermRow{analysis.Termination(r)})
	report.WriteBranches(buf, []analysis.BranchRow{analysis.BranchClasses(r)})
}

// opResult is one measured operation: the finished child, or why it
// failed.
type opResult struct {
	childResult
	err error
}

// measureOps runs op back to back for about window: another operation
// starts only while it is expected to end within half an operation of the
// window's end. Full-size operations take 8–17 s, so an 18 s window holds
// two when the host is quick and one when it is slow, which keeps a run
// inside its time budget either way.
func measureOps(ctx context.Context, window time.Duration, op func(context.Context) (childResult, error)) []opResult {
	var ops []opResult
	var walls []float64
	start := time.Now()
	for {
		res, err := op(ctx)
		ops = append(ops, opResult{res, err})
		typical := res.wall
		if err == nil {
			walls = append(walls, res.wall.Seconds())
			typical = time.Duration(median(walls) * float64(time.Second))
		}
		if ctx.Err() != nil || time.Since(start)+typical/2 >= window {
			return ops
		}
	}
}

// opLog keeps the timings of a run's passing operations.
type opLog struct {
	wall, cpu, rss []float64 // seconds, seconds, MB
	first          []byte    // output of the first passing operation
}

// checkOps puts every operation's output through check and keeps the
// timings of those that passed; failures are tallied and leave the
// timings alone.
func checkOps(ops []opResult, check checker, t *tally) opLog {
	var log opLog
	for _, o := range ops {
		err := o.err
		if err == nil {
			err = check(o.stdout)
		}
		t.record(err)
		if err != nil {
			continue
		}
		log.wall = append(log.wall, o.wall.Seconds())
		log.cpu = append(log.cpu, o.cpu.Seconds())
		log.rss = append(log.rss, o.rssMB)
		if log.first == nil {
			log.first = o.stdout
		}
	}
	return log
}

// runCLI is one untraced run of a command-line workload.
func (b *bench) runCLI(ctx context.Context, w *workload, t *tally) (*runResult, error) {
	setups := make([]float64, 0, b.setupReps)
	var p *prepared
	for rep := 0; rep < b.setupReps; rep++ {
		start := time.Now()
		var err error
		if p, err = b.setup(ctx, w, rep); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	argv := w.command(b, p.dir)
	ops := measureOps(ctx, b.window, func(ctx context.Context) (childResult, error) {
		return runChild(ctx, b.repo, argv[0], argv[1:]...)
	})
	// The references are built only now: the kernel counts this process's
	// own peak RSS at spawn time into a child's (os/exec forks with vfork
	// and execs), so it must stay small while measured children start.
	log := checkOps(ops, b.verifier(ctx, w, p, t), t)

	r := newRunResult(w.name, false, t)
	r.OutputSHA256 = sum(log.first)
	r.Metrics.set("setup_s", median(setups), "s")
	r.Metrics.set("latency_p50_ms", median(log.wall)*1e3, "ms")
	r.Metrics.set("cpu_ms", median(log.cpu)*1e3, "ms")
	r.Metrics.set("rss_mb", median(log.rss), "MB")
	r.note("medians of %d operations and %d set-ups", len(log.wall), len(setups))
	// Both commands model every input under all five predictors.
	var events uint64
	for _, n := range p.events {
		events += n
	}
	model := float64(events) * float64(len(predictor.AllKinds))
	r.note("%d events in, %.4g Mevents/s modelled (events × %d predictors / latency_p50_ms)",
		events, model/1e6/median(log.wall), len(predictor.AllKinds))
	return r, nil
}
