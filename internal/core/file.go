package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dpg"
	"repro/internal/trace"
)

// traceReader is the streaming surface shared by the sequential and
// parallel trace decoders; the model pass of AnalyzeFile is agnostic to
// which one is behind it.
type traceReader interface {
	Next(*trace.Event) error
	Name() string
	NumStatic() int
	Stats() trace.Stats
	StaticCounts() []uint64
	Close() error
}

// openTraceReader opens path with the reader the config selects:
// sequential by default, the concurrent block decoder under WithWorkers,
// lenient under WithLenientTrace.
func openTraceReader(path string, cfg *config) (traceReader, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	var r traceReader
	if cfg.parallel {
		r, err = trace.NewParallelReader(f, cfg.readerOpts()...)
	} else {
		r, err = trace.NewReader(f, cfg.readerOpts()...)
	}
	if err != nil {
		f.Close()
		return nil, nil, wrapTraceErr(err)
	}
	return r, f, nil
}

// AnalyzeFile runs the model over a trace file without ever loading the
// whole trace into memory: peak usage is O(block · workers), not O(trace).
// The static execution counts the model needs up front (write-once
// classification) come from the trace footer via a frame-walk probe that
// decodes no events; only when the probe cannot answer — a v1 stream, a
// damaged file, lenient mode, or a WithPreStats request — does a first
// streaming pass run the shardable pre-pass (dpg.PrePass) over the
// parallel reader's decoded blocks, concurrently across WithWorkers
// shards. The model pass then streams the events exactly once — alone,
// or fanned out to every WithObservers observer on the same decode.
//
// WithWorkers decodes with the concurrent block decoder and shards the
// pre-pass; WithLenientTrace analyses whatever survives a damaged file
// instead of failing; WithTraceStats surfaces the decode summary;
// WithPreStats surfaces the pre-pass summary.
func AnalyzeFile(path string, opts ...Option) (*dpg.Result, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	if err := cfg.ctxErr(); err != nil {
		return nil, wrapAbort(err)
	}

	// Pass 1: static execution counts — from the footer probe when the
	// frame structure is intact (no event decode at all), falling back to
	// the sharded pre-pass over per-block batches.
	counts, name, err := scanCounts(path, &cfg)
	if err != nil {
		return nil, err
	}

	// Under WithObservers the second pass fans the one decode out to the
	// model and every registered observer.
	if len(cfg.observers) > 0 {
		return analyzeObservers(path, name, counts, &cfg)
	}

	// Pass 2: stream events through the sequential model pass — or, under
	// WithSpeculation, through the epoch-speculative pass, which overlaps
	// the predictor chains with the classification sweep while producing
	// byte-identical results.
	r, f, err := openTraceReader(path, &cfg)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	defer r.Close()
	defer noteDecode(path)()
	if cfg.speculate {
		return analyzeSpeculative(path, r, name, counts, &cfg)
	}
	b, err := dpg.NewBuilder(name, counts, cfg.model)
	if err != nil {
		return nil, err
	}
	pl := dpg.NewPipeline(b)
	var e trace.Event
	for {
		err := r.Next(&e)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("core: streaming %s: %w", path, wrapTraceErr(err))
		}
		if err := pl.Observe(&e); err != nil {
			return nil, fmt.Errorf("core: streaming %s: %w", path, err)
		}
	}
	if cfg.statsOut != nil {
		*cfg.statsOut = r.Stats()
	}
	return b.Finish()
}

// analyzeSpeculative is AnalyzeFile's second pass under WithSpeculation:
// it batches the reader's events into blocks and feeds them to the
// epoch-speculative model pass. The error contract matches the sequential
// path exactly: read errors and model errors both surface as
// "core: streaming <path>: ..." with the same underlying taxonomy.
func analyzeSpeculative(path string, r traceReader, name string, counts []uint64, cfg *config) (*dpg.Result, error) {
	spec := cfg.specConfig()
	if spec.Epochs > 0 {
		// The pre-pass already counted the trace, so a requested epoch
		// count translates into an epoch length up front.
		var total uint64
		for _, c := range counts {
			total += c
		}
		if n := total / uint64(spec.Epochs); n > 0 && n < uint64(1<<31) {
			spec.EpochEvents = int(n) + 1
		}
	}
	s, err := dpg.NewSpecRun(name, counts, cfg.model, spec)
	if err != nil {
		return nil, err
	}
	const batch = 4096
	buf := make([]trace.Event, 0, batch)
	idx := uint64(0)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		err := s.ObserveBlock(idx, buf)
		idx++
		buf = buf[:0] // SpecRun copies; the batch buffer is reusable
		return err
	}
	var e trace.Event
	for {
		err := r.Next(&e)
		if err == io.EOF {
			break
		}
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("core: streaming %s: %w", path, wrapTraceErr(err))
		}
		buf = append(buf, e)
		if len(buf) == batch {
			if err := flush(); err != nil {
				s.Close()
				return nil, fmt.Errorf("core: streaming %s: %w", path, err)
			}
		}
	}
	if err := flush(); err != nil {
		s.Close()
		return nil, fmt.Errorf("core: streaming %s: %w", path, err)
	}
	if cfg.statsOut != nil {
		*cfg.statsOut = r.Stats()
	}
	res, err := s.Finish()
	if err != nil {
		return nil, fmt.Errorf("core: streaming %s: %w", path, err)
	}
	return res, nil
}

// scanCounts obtains the static execution counts and workload name the
// model needs before its event pass. The fast path is the footer probe —
// a frame walk that reads no events, so the model pass that follows is
// the file's only decode. The probe cannot answer for v1 streams (no
// framed footer), damaged files (the established "core: scanning"
// error contract must come from a real decode), lenient mode (the
// surviving-events counts may legitimately differ from the footer), or
// when the caller asked for pre-pass statistics; all of those fall back
// to the sharded pre-pass.
func scanCounts(path string, cfg *config) ([]uint64, string, error) {
	if !cfg.lenient && cfg.preStats == nil {
		if fi, err := trace.ScanFooterFile(path); err == nil {
			return fi.Counts, fi.Name, nil
		}
	}
	return scanPrePass(path, cfg)
}

// blockReaderOpts resolves the parallel-reader options (and the effective
// worker count) for a block-feed decode: Workers(1) by default — the
// sequential decode fallback, which still chunks events into synthetic
// blocks for the block feed — or the configured count under WithWorkers.
func (c *config) blockReaderOpts() (workers int, ropts []trace.ReaderOption) {
	workers = 1
	ropts = []trace.ReaderOption{trace.Workers(1)}
	if c.lenient {
		ropts = append(ropts, trace.Lenient())
	}
	if c.ctx != nil {
		ropts = append(ropts, trace.WithContext(c.ctx))
	}
	if c.parallel {
		workers = c.workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		ropts[0] = trace.Workers(c.workers)
	}
	return workers, ropts
}

// scanPrePass runs the shardable pre-pass over a trace file's decoded
// blocks and returns the static execution counts plus the workload name.
// The counts come from the footer when present (byte-identical to what a
// materializing reader would report); a footer lost to damage in lenient
// mode falls back to the pre-pass's own counts, which rebuild the same
// totals from the surviving events.
func scanPrePass(path string, cfg *config) ([]uint64, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()

	workers, ropts := cfg.blockReaderOpts()
	pr, err := trace.NewParallelReader(f, ropts...)
	if err != nil {
		return nil, "", wrapTraceErr(err)
	}
	defer pr.Close()
	defer noteDecode(path)()

	pre := dpg.NewPrePass(pr.NumStatic())
	if err := dpg.RunSharded(pre, workers, pr.ForEachBlock); err != nil {
		return nil, "", fmt.Errorf("core: scanning %s: %w", path, wrapTraceErr(err))
	}
	if cfg.preStats != nil {
		*cfg.preStats = pre.Stats()
	}
	counts := pr.StaticCounts()
	if counts == nil {
		counts = pre.StaticCounts()
	}
	return counts, pr.Name(), nil
}

// FileResult is one file's outcome in a multi-file analysis.
type FileResult struct {
	Path  string
	Res   *dpg.Result
	Stats trace.Stats
	Err   error
}

// AnalyzeFiles fans AnalyzeFile out over several trace files with up to
// parallel concurrent analyses (0 or 1 = sequential), the same bounded
// worker-pool shape Suite.Precompute uses for model runs. Results keep the
// input order; per-file failures land in FileResult.Err without stopping
// the other files.
//
// Under WithFailFast the fan-out stops launching new files after the
// first hard failure: analyses already in flight run to completion, and
// every file not yet started gets an ErrAborted-matching error instead.
// Under WithContext, cancellation both aborts in-flight analyses and
// prevents new ones from starting.
func AnalyzeFiles(paths []string, parallel int, opts ...Option) []FileResult {
	out := make([]FileResult, len(paths))
	if parallel < 1 {
		parallel = 1
	}
	if parallel > len(paths) {
		parallel = len(paths)
	}
	// The fan-out policy knobs (fail-fast, context) live in the same
	// option set as the per-file configuration; resolve them once here. An
	// invalid option set is left for the per-file AnalyzeFile calls to
	// report, preserving the per-file error contract.
	cfg, _ := buildConfig(opts)
	var failed atomic.Bool
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fr := &out[i]
				fr.Path = paths[i]
				if err := cfg.ctxErr(); err != nil {
					fr.Err = wrapAbort(err)
					continue
				}
				if cfg.failFast && failed.Load() {
					fr.Err = fmt.Errorf("%w: fail-fast: an earlier file failed", ErrAborted)
					continue
				}
				perFile := append(append([]Option{}, opts...), WithTraceStats(&fr.Stats))
				fr.Res, fr.Err = AnalyzeFile(paths[i], perFile...)
				if fr.Err != nil && !errors.Is(fr.Err, ErrAborted) {
					failed.Store(true)
				}
			}
		}()
	}
	for i := range paths {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// TraceDir returns a SuiteConfig.TraceFile lookup mapping each workload
// name to dir/<name>.dpg when that file exists, so a suite can stream
// pre-generated traces from disk instead of regenerating (and holding)
// them in memory.
func TraceDir(dir string) func(name string) (string, bool) {
	return func(name string) (string, bool) {
		p := filepath.Join(dir, name+".dpg")
		if _, err := os.Stat(p); err != nil {
			return "", false
		}
		return p, true
	}
}

// DumpJSON precomputes every (workload, predictor) model result and writes
// them as a JSON object keyed "workload/predictor" — the machine-readable
// companion to the text figures, for plotting or downstream analysis.
// Array fields are indexed by the dpg enums (NodeClass, ArcUse, ArcLabel,
// GenClass, OpGroup) in declaration order.
func (s *Suite) DumpJSON(w io.Writer) error {
	if err := s.Precompute(); err != nil {
		return err
	}
	all := make(map[string]*dpg.Result)
	for _, name := range s.suiteNames() {
		for _, k := range s.suiteKinds() {
			r, err := s.Result(name, k)
			if err != nil {
				return err
			}
			all[name+"/"+k.String()] = r
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(all)
}
