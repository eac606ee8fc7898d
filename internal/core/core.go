// Package core is the public facade of the predictability-model library.
// It ties the substrates together: assemble or load a program, execute it
// into a trace, run the DPG model with a chosen predictor, and reproduce
// the paper's experiments.
//
// Quick use:
//
//	w, _ := workloads.ByName("gcc")
//	tr, _ := w.Trace()
//	res, err := core.RunTrace(tr, core.WithKind(predictor.KindContext))
//	if err != nil { ... }
//	fmt.Println(res.Pct(res.NodeProp()))
//
// or, for the paper's full evaluation, build a Suite and run experiments:
//
//	s := core.NewSuite(core.SuiteConfig{})
//	s.Run("fig5", os.Stdout)
package core

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// config is the resolved form of the public options: the model
// configuration plus the trace-ingestion knobs AnalyzeFile honours
// (decode workers, lenient decoding, stats surfacing). RunTrace operates
// on an already-decoded trace, so it uses only the model half.
type config struct {
	model     dpg.Config
	parallel  bool
	workers   int
	lenient   bool
	statsOut  *trace.Stats
	preStats  *dpg.PreStats
	ctx       context.Context
	observers []analysis.Observer
}

// Option configures RunTrace and AnalyzeFile.
type Option func(*config)

// WithKind selects one of the paper's predictors (default: context-based).
func WithKind(k predictor.Kind) Option {
	return func(c *config) {
		c.model.Predictor = k.Factory()
		c.model.PredictorName = k.String()
	}
}

// WithPredictor installs a custom value predictor through its factory. The
// model instantiates it twice (input side and output side).
func WithPredictor(name string, f predictor.Factory) Option {
	return func(c *config) {
		c.model.Predictor = f
		c.model.PredictorName = name
	}
}

// WithWorkers makes AnalyzeFile decode the trace file's blocks on a pool
// of n workers (0 = all cores) instead of inline on the calling goroutine,
// the default. The pool runs the same frame walk and block decoder, so
// results are identical; only ingestion throughput changes. RunTrace,
// which takes an already-decoded trace, ignores the option.
func WithWorkers(n int) Option {
	return func(c *config) {
		c.parallel = true
		c.workers = n
	}
}

// WithLenientTrace makes AnalyzeFile resynchronise past corrupt or
// truncated trace regions instead of failing, analysing the surviving
// events (the library-side equivalent of dpgrun -strict=false). Combine
// with WithTraceStats to observe what was skipped.
func WithLenientTrace() Option {
	return func(c *config) { c.lenient = true }
}

// WithTraceStats points at a location AnalyzeFile fills with the decode
// summary — the same trace.Stats behind dpgrun's corruption report.
func WithTraceStats(st *trace.Stats) Option {
	return func(c *config) { c.statsOut = st }
}

// WithGraphLimit records the DPG fragment (nodes and labeled arcs, paper
// Fig. 3) for the first n dynamic instructions into Result.Graph.
func WithGraphLimit(n int) Option {
	return func(c *config) { c.model.GraphLimit = n }
}

// WithPreStats points at a location AnalyzeFile fills with the pre-pass
// summary (dynamic instruction count, PC universe, arc/D-node shape) —
// available before the model pass runs, without materializing the trace.
func WithPreStats(ps *dpg.PreStats) Option {
	return func(c *config) { c.preStats = ps }
}

// WithObservers registers streaming experiment observers
// (analysis.Observer) onto AnalyzeFile's decode: one pass over the trace
// serves the model and every observer (via analysis.RunObservers), so a
// multi-experiment analysis still reads the file exactly once at
// O(block·workers) memory. Each observer receives every event in stream
// order on its own goroutine, concurrently with the model and the other
// observers, so observers must not share mutable state; their results
// accumulate in the caller-owned observer objects. A panicking observer
// is isolated into a typed *analysis.ObserverError joined into the
// returned error without corrupting sibling observers; as with any
// AnalyzeFile failure, the returned Result is nil on error (the
// observers' own accumulated state remains readable regardless).
func WithObservers(obs ...analysis.Observer) Option {
	return func(c *config) { c.observers = append(c.observers, obs...) }
}

// WithContext binds an analysis to ctx: once ctx is cancelled or its
// deadline passes, AnalyzeFile aborts promptly — decode workers, the
// pre-pass, and the model pass all stop within the current block —
// and returns an error matching ErrAborted (and the context's own error
// via errors.Is). Under AnalyzeFiles the files not yet started when the
// context ends are marked with ErrAborted without being opened. A nil ctx
// (the default) disables cancellation entirely.
func WithContext(ctx context.Context) Option {
	return func(c *config) { c.ctx = ctx }
}

// ctxErr reports the config's context error (nil without WithContext or
// while the context is live).
func (c *config) ctxErr() error {
	if c.ctx == nil {
		return nil
	}
	return c.ctx.Err()
}

// buildConfig folds the options over the default (context) configuration.
// Option closures that panic — e.g. a Kind out of range — are converted
// into ErrConfig at this boundary.
func buildConfig(opts []Option) (cfg config, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrConfig, r)
		}
	}()
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.model.Predictor == nil {
		cfg.model.Predictor = predictor.KindContext.Factory()
		cfg.model.PredictorName = predictor.KindContext.String()
	}
	return cfg, nil
}

// RunTrace runs the predictability model over a trace. It is the panic-free
// public entry point: a nil trace, invalid predictor configuration, or
// out-of-range event fields produce an error matching ErrConfig /
// ErrMalformedEvent instead of crashing, so externally produced traces can
// be fed without trust.
func RunTrace(t *trace.Trace, opts ...Option) (*dpg.Result, error) {
	if t == nil {
		return nil, fmt.Errorf("%w: nil trace", ErrConfig)
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	return dpg.RunWith(t, cfg.model)
}

// SuiteConfig parameterises a full evaluation run.
type SuiteConfig struct {
	// Scale multiplies every workload's default rounds (1.0 if zero).
	// Scaling down speeds up the full figure set for smoke runs.
	Scale float64
	// Seed selects the workload input seed (1 if zero).
	Seed uint64
	// Parallel bounds the number of concurrent model runs during
	// Precompute (and RunAll, which precomputes first). Zero or one means
	// sequential.
	Parallel int
	// Progress, if non-nil, receives one line per model run.
	Progress io.Writer
	// TraceSource, if non-nil, replaces workload trace generation: it
	// receives the workload name, the scaled round count, and the seed.
	// Tests use it to source traces from files or to inject faults.
	TraceSource func(name string, rounds int, seed uint64) (*trace.Trace, error)
	// TraceFile, if non-nil, maps a workload name to a trace file path
	// (see TraceDir). The suite then reads that file (trace.ReadFile)
	// wherever it would generate the workload's trace: the decoded trace
	// is cached and shared by the model runs and experiment products
	// exactly like a generated one, so each file is read once per suite
	// and held whole while its jobs run. Workloads the lookup declines
	// fall back to TraceSource/generation.
	TraceFile func(name string) (path string, ok bool)
	// PaperCorpus restricts the suite to the paper's original corpus: the
	// twelve SPEC95-modeled workloads and the three predictors of the
	// source paper (last-value, stride, context). The default (false) runs
	// the extended corpus — the graph scenario pack (bfs/pgr/ccp) and the
	// tage/ldbp predictors included — so figures gain GRAPH average rows
	// and T/D columns. PaperCorpus exists so the original figure set stays
	// reproducible byte-for-byte next to the extensions.
	PaperCorpus bool
}

// Suite caches traces and model results across the paper's experiments so
// regenerating every figure touches each (workload, predictor) pair once.
// Suites are safe for concurrent use; independent model runs proceed in
// parallel (one model run never blocks another).
type Suite struct {
	cfg SuiteConfig

	mu       sync.Mutex
	traces   map[string]*traceEntry
	results  map[string]*resultEntry
	products map[string]*productEntry
	pending  map[string]int // Precompute jobs not yet finished per workload
}

type traceEntry struct {
	once sync.Once
	t    *trace.Trace
	err  error
}

type resultEntry struct {
	once sync.Once
	res  *dpg.Result
	err  error
}

// NewSuite prepares an experiment suite.
func NewSuite(cfg SuiteConfig) *Suite {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Suite{
		cfg:      cfg,
		traces:   make(map[string]*traceEntry),
		results:  make(map[string]*resultEntry),
		products: make(map[string]*productEntry),
		pending:  make(map[string]int),
	}
}

// traceFor returns (and caches) the workload's trace at the suite scale.
// Loading a trace releases every other cached trace no pending Precompute
// job needs, so outside Precompute at most one trace is held: an
// experiment that reads its workloads one after another loads each once.
// A failed load is never cached: the entry is evicted so a later call
// retries the source instead of replaying a stale error.
func (s *Suite) traceFor(name string) (*trace.Trace, error) {
	s.mu.Lock()
	te := s.traces[name]
	if te == nil {
		for other := range s.traces {
			if s.pending[other] == 0 {
				delete(s.traces, other)
			}
		}
		te = &traceEntry{}
		s.traces[name] = te
	}
	s.mu.Unlock()
	te.once.Do(func() {
		te.t, te.err = s.traceOnce(name)
	})
	if te.err != nil {
		s.mu.Lock()
		if s.traces[name] == te {
			delete(s.traces, name)
		}
		s.mu.Unlock()
	}
	return te.t, te.err
}

// Result returns (and caches) the model result for one workload and
// predictor, run over the workload's cached trace (see traceFor).
// Distinct (workload, predictor) pairs compute concurrently.
func (s *Suite) Result(name string, kind predictor.Kind) (*dpg.Result, error) {
	key := name + "/" + kind.String()
	s.mu.Lock()
	re := s.results[key]
	if re == nil {
		re = &resultEntry{}
		s.results[key] = re
	}
	s.mu.Unlock()
	re.once.Do(func() {
		t, err := s.traceFor(name)
		if err != nil {
			re.err = err
			return
		}
		if s.cfg.Progress != nil {
			fmt.Fprintf(s.cfg.Progress, "running %-5s with %-10s (%d events)\n", name, kind, t.Len())
		}
		re.res, re.err = dpg.Run(t, kind)
	})
	if re.err != nil {
		// Consistency over memoisation: a failed run must not poison the
		// cache, so evict the entry and let a later call retry.
		s.mu.Lock()
		if s.results[key] == re {
			delete(s.results, key)
		}
		s.mu.Unlock()
	}
	return re.res, re.err
}

// Precompute computes up front, on up to cfg.Parallel workers, every
// product the experiments read: the (workload, predictor) model runs and
// the experiment products (see productJobs). Jobs are queued
// workload-major and all read the workload's one cached trace, generated
// or read from its trace file, which is released when the last of them
// finishes. Subsequent experiments then only read memoised results.
func (s *Suite) Precompute() error {
	par := s.cfg.Parallel
	if par < 1 {
		par = 1
	}
	type job struct {
		name string
		run  func() error
	}
	jobs := make(chan job)
	errs := make(chan error, par)
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				err := j.run()
				s.jobDone(j.name)
				if err != nil {
					select {
					case errs <- err:
					default:
					}
				}
			}
		}()
	}
	for _, name := range s.suiteNames() {
		var work []func() error
		for _, k := range s.suiteKinds() {
			work = append(work, func() error {
				_, err := s.Result(name, k)
				return err
			})
		}
		for _, pj := range s.productJobs(name) {
			work = append(work, func() error {
				_, err := s.product(name, pj)
				return err
			})
		}
		// Count the workload's jobs before queueing any, so an early
		// finisher cannot release the trace its siblings still need.
		s.mu.Lock()
		s.pending[name] += len(work)
		s.mu.Unlock()
		for _, run := range work {
			jobs <- job{name: name, run: run}
		}
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// jobDone retires one finished Precompute job of a workload, releasing
// the workload's trace after the last one.
func (s *Suite) jobDone(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending[name]--
	if s.pending[name] == 0 {
		delete(s.pending, name)
		delete(s.traces, name)
	}
}

// resultsFor collects results for a set of workloads under one predictor.
func (s *Suite) resultsFor(names []string, kind predictor.Kind) ([]*dpg.Result, error) {
	out := make([]*dpg.Result, 0, len(names))
	for _, n := range names {
		r, err := s.Result(n, kind)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// resultsByKind collects the results for a set of workloads under every
// suite predictor, per kind in names order. It fetches them
// workload-major, so each workload's runs share its one cached trace.
func (s *Suite) resultsByKind(names []string) (map[predictor.Kind][]*dpg.Result, error) {
	byKind := make(map[predictor.Kind][]*dpg.Result)
	for _, n := range names {
		for _, k := range s.suiteKinds() {
			r, err := s.Result(n, k)
			if err != nil {
				return nil, err
			}
			byKind[k] = append(byKind[k], r)
		}
	}
	return byKind, nil
}

func intNames() []string {
	names := make([]string, 0, 8)
	for _, w := range workloads.Integer() {
		names = append(names, w.Name)
	}
	return names
}

func floatNames() []string {
	names := make([]string, 0, 4)
	for _, w := range workloads.Float() {
		names = append(names, w.Name)
	}
	return names
}

func allNames() []string { return append(intNames(), floatNames()...) }

func graphNames() []string {
	names := make([]string, 0, 3)
	for _, w := range workloads.Graph() {
		names = append(names, w.Name)
	}
	return names
}

// suiteNames returns the workloads the suite's experiments enumerate: the
// paper's twelve, plus the graph scenario pack unless PaperCorpus restricts
// the run. Order is fixed: integer, float, graph.
func (s *Suite) suiteNames() []string {
	if s.cfg.PaperCorpus {
		return allNames()
	}
	return append(allNames(), graphNames()...)
}

// suiteKinds returns the predictor kinds the suite's experiments enumerate:
// the paper's three, or all five (adding tage and ldbp) on the extended
// corpus.
func (s *Suite) suiteKinds() []predictor.Kind {
	if s.cfg.PaperCorpus {
		return predictor.Kinds
	}
	return predictor.AllKinds
}

// Experiments lists the runnable experiment ids with a one-line description
// of the table/figure each reproduces.
func Experiments() map[string]string {
	return map[string]string{
		"table1": "Table 1: benchmark DPG characteristics",
		"fig5":   "Figure 5: overall node and arc predictability",
		"fig6":   "Figure 6: generation breakdown",
		"fig7":   "Figure 7: propagation breakdown",
		"fig8":   "Figure 8: termination breakdown",
		"fig9":   "Figure 9: generator-class path analysis",
		"fig10":  "Figure 10: tree depth and aggregate propagation (gcc, context)",
		"fig11":  "Figure 11: generates per propagate and distances (com/go/gcc, context)",
		"fig12":  "Figure 12: predictable sequence lengths (INT average)",
		"fig13":  "Figure 13: branch predictability behavior (INT average)",
		// Extensions beyond the paper's figures, quantifying its prose
		// claims (see DESIGN.md §5).
		"attribution": "Extension: node classes by operation group (paper §4.2-4.4 narrative)",
		"hotspots":    "Extension: static generate points and concentration (paper §4.5 claim)",
		"unpred":      "Extension: decomposition of unpredictability (paper §6 future work)",
		"correlation": "Extension: input-correlated output prediction (paper §6 proposal)",
		"reuse":       "Extension: instruction reuse potential (paper §1.2/§6)",
		"addresses":   "Extension: address vs data predictability at memory ops (paper §1)",
		"confidence":  "Extension: confidence-gated value prediction sweep (paper §1.2)",
		"ilp":         "Extension: dataflow-limit ILP with and without value prediction (paper §1 / ref [9])",
		"speculation": "Extension: width-limited value speculation vs confidence threshold (paper §1.2)",
	}
}

// ExperimentIDs returns the experiment ids in presentation order.
func ExperimentIDs() []string {
	ids := make([]string, 0, len(Experiments()))
	for id := range Experiments() {
		ids = append(ids, id)
	}
	rank := func(id string) int {
		switch id {
		case "table1":
			return 0
		case "attribution":
			return 100
		case "hotspots":
			return 101
		case "unpred":
			return 102
		case "correlation":
			return 103
		case "reuse":
			return 104
		case "addresses":
			return 105
		case "confidence":
			return 106
		case "ilp":
			return 107
		case "speculation":
			return 108
		}
		var n int
		fmt.Sscanf(id, "fig%d", &n)
		return n
	}
	sort.Slice(ids, func(i, j int) bool { return rank(ids[i]) < rank(ids[j]) })
	return ids
}

// Run executes one experiment by id and renders it to w. Panics below the
// experiment code (a bug, not a caller mistake) are converted into errors
// so a long figure-set run reports the failing experiment instead of
// crashing the process.
func (s *Suite) Run(id string, w io.Writer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: experiment %s: internal panic: %v", ErrConfig, id, r)
		}
	}()
	switch id {
	case "table1":
		return s.table1(w)
	case "fig5":
		return s.fig5(w)
	case "fig6", "fig7", "fig8":
		return s.breakdown(id, w)
	case "fig9":
		return s.fig9(w)
	case "fig10":
		return s.fig10(w)
	case "fig11":
		return s.fig11(w)
	case "fig12":
		return s.fig12(w)
	case "fig13":
		return s.fig13(w)
	case "attribution":
		return s.attribution(w)
	case "hotspots":
		return s.hotspots(w)
	case "unpred":
		return s.unpredictability(w)
	case "correlation":
		return s.correlation(w)
	case "reuse":
		return s.reuse(w)
	case "addresses":
		return s.addresses(w)
	case "confidence":
		return s.confidence(w)
	case "ilp":
		return s.ilp(w)
	case "speculation":
		return s.speculation(w)
	}
	return fmt.Errorf("core: unknown experiment %q (known: %v)", id, ExperimentIDs())
}

// RunAll executes every experiment in order after precomputing every
// product on up to cfg.Parallel workers, so each workload's trace is
// generated (or decoded) once however many experiments read it.
func (s *Suite) RunAll(w io.Writer) error {
	if err := s.Precompute(); err != nil {
		return err
	}
	for _, id := range ExperimentIDs() {
		if err := s.Run(id, w); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

func (s *Suite) table1(w io.Writer) error {
	// DPG characteristics are predictor-independent; use last-value (the
	// cheapest) and share its results with the other figures.
	results, err := s.resultsFor(s.suiteNames(), predictor.KindLast)
	if err != nil {
		return err
	}
	report.WriteTable1(w, analysis.Table1(results))
	return nil
}

func (s *Suite) fig5(w io.Writer) error {
	var rows []analysis.OverallRow
	kinds := s.suiteKinds()
	perKind := map[predictor.Kind][]analysis.OverallRow{}
	for _, name := range s.suiteNames() {
		for _, k := range kinds {
			r, err := s.Result(name, k)
			if err != nil {
				return err
			}
			row := analysis.Overall(r)
			rows = append(rows, row)
			perKind[k] = append(perKind[k], row)
		}
	}
	nInt, nFloat := len(intNames()), len(floatNames())
	for _, k := range kinds {
		rows = append(rows, analysis.AverageOverall(perKind[k][:nInt], "INT"))
	}
	for _, k := range kinds {
		rows = append(rows, analysis.AverageOverall(perKind[k][nInt:nInt+nFloat], "FLOAT"))
	}
	if len(perKind[kinds[0]]) > nInt+nFloat {
		for _, k := range kinds {
			rows = append(rows, analysis.AverageOverall(perKind[k][nInt+nFloat:], "GRAPH"))
		}
	}
	report.WriteOverall(w, rows)
	return nil
}

func (s *Suite) breakdown(id string, w io.Writer) error {
	var gen []analysis.GenRow
	var prop []analysis.PropRow
	var term []analysis.TermRow
	for _, name := range s.suiteNames() {
		for _, k := range s.suiteKinds() {
			r, err := s.Result(name, k)
			if err != nil {
				return err
			}
			switch id {
			case "fig6":
				gen = append(gen, analysis.Generation(r))
			case "fig7":
				prop = append(prop, analysis.Propagation(r))
			case "fig8":
				term = append(term, analysis.Termination(r))
			}
		}
	}
	switch id {
	case "fig6":
		report.WriteGeneration(w, gen)
	case "fig7":
		report.WritePropagation(w, prop)
	case "fig8":
		report.WriteTermination(w, term)
	}
	return nil
}

func (s *Suite) fig9(w io.Writer) error {
	byKind, err := s.resultsByKind(intNames())
	if err != nil {
		return err
	}
	var classRows []analysis.PathClassRow
	for _, k := range s.suiteKinds() {
		var rows []analysis.PathClassRow
		for _, r := range byKind[k] {
			rows = append(rows, analysis.PathClasses(r))
		}
		classRows = append(classRows, analysis.AveragePathClasses(rows, "INT"))
	}
	report.WritePathClasses(w, classRows)

	combos := analysis.Combos(byKind[predictor.KindContext], 24)
	report.WriteCombos(w, combos,
		func(mask int) float64 { return analysis.ComboPctFor(byKind[predictor.KindLast], mask) },
		func(mask int) float64 { return analysis.ComboPctFor(byKind[predictor.KindStride], mask) },
	)
	return nil
}

func (s *Suite) fig10(w io.Writer) error {
	r, err := s.Result("gcc", predictor.KindContext)
	if err != nil {
		return err
	}
	report.WriteTrees(w, analysis.Trees(r))
	return nil
}

func (s *Suite) fig11(w io.Writer) error {
	var rows []analysis.InfluenceCDFs
	for _, name := range []string{"com", "go", "gcc"} {
		r, err := s.Result(name, predictor.KindContext)
		if err != nil {
			return err
		}
		rows = append(rows, analysis.Influence(r))
	}
	report.WriteInfluence(w, rows)
	return nil
}

func (s *Suite) fig12(w io.Writer) error {
	byKind, err := s.resultsByKind(intNames())
	if err != nil {
		return err
	}
	var rows []analysis.SeqRow
	for _, k := range s.suiteKinds() {
		var per []analysis.SeqRow
		for _, r := range byKind[k] {
			per = append(per, analysis.Sequences(r))
		}
		rows = append(rows, analysis.AverageSequences(per, "INT"))
	}
	report.WriteSequences(w, rows)
	return nil
}

func (s *Suite) fig13(w io.Writer) error {
	byKind, err := s.resultsByKind(intNames())
	if err != nil {
		return err
	}
	var rows []analysis.BranchRow
	for _, k := range s.suiteKinds() {
		var per []analysis.BranchRow
		for _, r := range byKind[k] {
			per = append(per, analysis.BranchClasses(r))
		}
		rows = append(rows, analysis.AverageBranches(per, "INT"))
	}
	report.WriteBranches(w, rows)
	// The paper's headline branch observation.
	var sum float64
	ctx := byKind[predictor.KindContext]
	for _, r := range ctx {
		sum += analysis.MispredictedWithPredictableInputs(r)
	}
	if len(ctx) > 0 {
		fmt.Fprintf(w, "mispredicted branches with all-predictable inputs (context, INT avg): %.1f%%\n\n", sum/float64(len(ctx)))
	}
	return nil
}

func (s *Suite) attribution(w io.Writer) error {
	results, err := s.resultsFor(intNames(), predictor.KindContext)
	if err != nil {
		return err
	}
	classes := []dpg.NodeClass{
		dpg.NodeGenNN, dpg.NodeGenIN, // §4.2: compare/logical/shift/branch
		dpg.NodePropPN,                 // §4.3: memory
		dpg.NodeTermPN,                 // §4.4: memory
		dpg.NodeTermPP, dpg.NodeTermPI, // §4.4: context history limits
	}
	report.WriteAttribution(w, analysis.Attribution(results, classes))

	bcls := analysis.GroupShare(results, dpg.NodeGenNN,
		dpg.GroupBranch, dpg.GroupCompare, dpg.GroupLogical, dpg.GroupShift)
	mix := analysis.GroupShare(results, dpg.NodeGenIN,
		dpg.GroupBranch, dpg.GroupCompare, dpg.GroupLogical, dpg.GroupShift)
	mem := analysis.GroupShare(results, dpg.NodeTermPN, dpg.GroupMemory)
	fmt.Fprintf(w, "paper §4.2 check: branch/compare/logical/shift share of n,n->p = %.1f%%, of i,n->p = %.1f%% (paper: 70-95%%)\n", bcls, mix)
	fmt.Fprintf(w, "paper §4.4 check: memory share of p,n->n terminations = %.1f%% (paper: primary cause)\n\n", mem)
	return nil
}

func (s *Suite) hotspots(w io.Writer) error {
	for _, name := range []string{"gcc", "com"} {
		r, err := s.Result(name, predictor.KindContext)
		if err != nil {
			return err
		}
		wl, _ := workloads.ByName(name)
		prog, err := wl.Program()
		if err != nil {
			return err
		}
		disasm := func(pc uint32) string {
			if int(pc) < len(prog.Instrs) {
				return prog.Instrs[pc].String()
			}
			return "?"
		}
		top := analysis.TopGeneratePoints(r, 10)
		report.WriteHotspots(w, name, top, disasm)
		gens, tree := analysis.GenerateConcentration(r, 10)
		fmt.Fprintf(w, "%s: %d static generate points; top 10 contribute %.1f%% of generates and %.1f%% of aggregate propagation\n\n",
			name, analysis.StaticGeneratePoints(r), gens, tree)
	}
	return nil
}

func (s *Suite) unpredictability(w io.Writer) error {
	var rows []analysis.UnpredRow
	kinds := s.suiteKinds()
	perKind := map[predictor.Kind][]analysis.UnpredRow{}
	for _, name := range s.suiteNames() {
		for _, k := range kinds {
			r, err := s.Result(name, k)
			if err != nil {
				return err
			}
			row := analysis.Unpredictability(r)
			rows = append(rows, row)
			perKind[k] = append(perKind[k], row)
		}
	}
	nInt, nFloat := len(intNames()), len(floatNames())
	for _, k := range kinds {
		rows = append(rows, analysis.AverageUnpredictability(perKind[k][:nInt], "INT"))
	}
	for _, k := range kinds {
		rows = append(rows, analysis.AverageUnpredictability(perKind[k][nInt:nInt+nFloat], "FLOAT"))
	}
	if len(perKind[kinds[0]]) > nInt+nFloat {
		for _, k := range kinds {
			rows = append(rows, analysis.AverageUnpredictability(perKind[k][nInt+nFloat:], "GRAPH"))
		}
	}
	report.WriteUnpredictability(w, rows)
	return nil
}

// correlation compares standard PC-keyed output prediction against the
// paper's §6 proposal of correlating output predictions with the
// instruction's current input values, reporting the change in propagation
// and in the p,p->n / p,i->n terminations the proposal targets.
func (s *Suite) correlation(w io.Writer) error {
	fmt.Fprintln(w, "Correlation: output prediction keyed by PC vs (PC, input values) — context predictor")
	fmt.Fprintf(w, "%-6s %14s %14s %18s %18s\n", "bench", "prop% (pc)", "prop% (corr)", "pp/pi->n% (pc)", "pp/pi->n% (corr)")
	for _, name := range intNames() {
		base, err := s.Result(name, predictor.KindContext)
		if err != nil {
			return err
		}
		corr, err := s.correlationResult(name)
		if err != nil {
			return err
		}
		prop := func(r *dpg.Result) float64 { return r.Pct(r.NodeProp() + r.ArcTotal(dpg.ArcPP)) }
		term := func(r *dpg.Result) float64 {
			return r.Pct(r.NodeCount[dpg.NodeTermPP] + r.NodeCount[dpg.NodeTermPI])
		}
		fmt.Fprintf(w, "%-6s %14.1f %14.1f %18.2f %18.2f\n",
			name, prop(base), prop(corr), term(base), term(corr))
	}
	fmt.Fprintln(w, "note: wholesale correlation fragments the tables (every input combination")
	fmt.Fprintln(w, "warms up separately), so overall propagation drops even where the targeted")
	fmt.Fprintln(w, "p,p->n / p,i->n terminations shrink — evidence that the paper's correlation")
	fmt.Fprintln(w, "proposal must be applied selectively, not as the default output key.")
	fmt.Fprintln(w)
	return nil
}

// reuse reports instruction-reuse potential per integer benchmark next to
// the fully-predictable instruction share, connecting the model's
// predictable regions to the reuse/memoization application of §6.
func (s *Suite) reuse(w io.Writer) error {
	fmt.Fprintln(w, "Reuse: 64K-entry reuse buffer hit rate vs fully predictable instructions (context)")
	fmt.Fprintf(w, "%-6s %10s %12s %12s %16s\n", "bench", "eligible", "reuse%", "load-reuse%", "predictable%")
	for _, name := range intNames() {
		rs, err := s.reuseStats(name)
		if err != nil {
			return err
		}
		res, err := s.Result(name, predictor.KindContext)
		if err != nil {
			return err
		}
		loadPct := 0.0
		if rs.Loads > 0 {
			loadPct = 100 * float64(rs.LoadsReused) / float64(rs.Loads)
		}
		predPct := 100 * float64(res.Seq.PredictableInstrs) / float64(res.Nodes)
		fmt.Fprintf(w, "%-6s %10d %12.1f %12.1f %16.1f\n",
			name, rs.Eligible, rs.ReusePct(), loadPct, predPct)
	}
	fmt.Fprintln(w)
	return nil
}

// traceOnce loads a workload trace at the suite's scale for traceFor: the
// decoded trace file when TraceFile names one, otherwise TraceSource's
// trace or a fresh generation. A damaged file fails whole (a truncated
// file's partial trace is never used), with an error naming the path and
// matching the core taxonomy.
func (s *Suite) traceOnce(name string) (*trace.Trace, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown workload %q", name)
	}
	if s.cfg.TraceFile != nil {
		if path, ok := s.cfg.TraceFile(name); ok {
			defer noteDecode(path)()
			t, err := trace.ReadFile(path)
			if err != nil {
				return nil, fmt.Errorf("core: reading %s: %w", path, wrapTraceErr(err))
			}
			return t, nil
		}
	}
	rounds := int(float64(w.Rounds) * s.cfg.Scale)
	if rounds < 2 {
		rounds = 2
	}
	if s.cfg.TraceSource != nil {
		return s.cfg.TraceSource(name, rounds, s.cfg.Seed)
	}
	return w.TraceRounds(rounds, s.cfg.Seed)
}

// addresses reports the address/data predictability cross table per
// benchmark — including the paper's dominant termination case, predictable
// address with unpredictable data.
func (s *Suite) addresses(w io.Writer) error {
	fmt.Fprintln(w, "Addresses: effective-address (2-delta stride) vs data predictability at memory ops (context)")
	fmt.Fprintf(w, "%-6s %10s %10s %10s %10s %10s %10s\n",
		"bench", "mem-ops", "a+d+%", "a+d-%", "a-d+%", "a-d-%", "addr-acc%")
	for _, name := range s.suiteNames() {
		r, err := s.Result(name, predictor.KindContext)
		if err != nil {
			return err
		}
		a := r.Addr
		total := a.Loads + a.Stores
		if total == 0 {
			continue
		}
		pct := func(c uint64) float64 { return 100 * float64(c) / float64(total) }
		addrAcc := pct(a.Count[1][0] + a.Count[1][1])
		fmt.Fprintf(w, "%-6s %10d %10.1f %10.1f %10.1f %10.1f %10.1f\n",
			name, total, pct(a.Count[1][1]), pct(a.Count[1][0]), pct(a.Count[0][1]), pct(a.Count[0][0]), addrAcc)
	}
	fmt.Fprintln(w, "a+ = address predicted, d+ = data predicted; a+d- is the paper's dominant p,n->n case")
	fmt.Fprintln(w)
	return nil
}

// confidence sweeps a saturating confidence gate over output-side value
// prediction, showing the coverage/accuracy trade (§1.2: confidence is
// "probably essential for effective value prediction and speculation").
func (s *Suite) confidence(w io.Writer) error {
	fmt.Fprintln(w, "Confidence: coverage%/accuracy% of context value prediction gated at threshold t")
	fmt.Fprintf(w, "%-6s", "bench")
	for th := 0; th <= analysis.ConfMaxLevel; th++ {
		fmt.Fprintf(w, "        t=%d", th)
	}
	fmt.Fprintln(w)
	for _, name := range intNames() {
		points, err := s.confidencePoints(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-6s", name)
		for _, pt := range points {
			fmt.Fprintf(w, " %5.1f/%4.1f", pt.CoveragePct, pt.AccuracyPct)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return nil
}

// ilp reports the dataflow-limit ILP study — the paper's motivating
// application of value prediction (ref [9], exceeding the dataflow limit).
func (s *Suite) ilp(w io.Writer) error {
	fmt.Fprintln(w, "ILP: dataflow-limit instructions/cycle without and with value prediction")
	fmt.Fprintf(w, "%-6s %10s %10s", "bench", "instrs", "base-ILP")
	for _, k := range s.suiteKinds() {
		fmt.Fprintf(w, " %10s %8s", k.Letter()+"-ILP", k.Letter()+"-spd")
	}
	fmt.Fprintln(w)
	for _, name := range s.suiteNames() {
		stats, err := s.ilpStats(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-6s %10d", name, stats[0].Instructions)
		first := true
		for _, st := range stats {
			if first {
				fmt.Fprintf(w, " %10.2f", st.ILPBase())
				first = false
			}
			fmt.Fprintf(w, " %10.2f %7.2fx", st.ILPVP(), st.Speedup())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return nil
}

// speculation sweeps the confidence threshold of a width-limited
// value-speculating machine, quantifying §1.2: without confidence gating,
// misspeculation recovery can erase (or invert) the speculation win.
func (s *Suite) speculation(w io.Writer) error {
	fmt.Fprintln(w, "Speculation: 64-wide (dataflow-bound) machine, context value prediction, 8-cycle recovery; IPC / misspec% by confidence threshold")
	fmt.Fprintf(w, "%-6s %9s", "bench", "no-spec")
	for _, th := range analysis.SpeculationSweep().Thresholds[1:] {
		fmt.Fprintf(w, "      t=%d", th)
	}
	fmt.Fprintln(w)
	for _, name := range intNames() {
		stats, err := s.speculationStats(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-6s %9.2f", name, stats[0].IPC())
		for _, st := range stats[1:] {
			fmt.Fprintf(w, " %4.2f/%2.0f%%", st.IPC(), st.MisspecPct())
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return nil
}
