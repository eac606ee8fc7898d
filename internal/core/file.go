package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// openTraceReader opens path with the block decoder every file pass in
// this package reads through (see blockReaderOpts): one worker by
// default, WithWorkers' count otherwise, lenient under WithLenientTrace.
func openTraceReader(path string, cfg *config) (*trace.Reader, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	r, err := trace.NewReader(f, cfg.blockReaderOpts()...)
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
// streaming pass run the pre-pass (dpg.PrePass) over the events in stream
// order. The model pass then streams the events exactly once through the
// same fan-out as AnalyzeFileKinds — alone, or next to every
// WithObservers observer on the same decode.
//
// WithWorkers decodes both passes with that many block-decode workers
// (one by default); WithLenientTrace analyses whatever survives a damaged
// file instead of failing; WithTraceStats surfaces the decode summary;
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
	// the pre-pass.
	counts, name, err := scanCounts(path, &cfg)
	if err != nil {
		return nil, err
	}

	// Pass 2: the one model fan-out.
	res, err := analyzeModels(path, name, counts, &cfg, []dpg.Config{cfg.model})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// scanCounts obtains the static execution counts and workload name the
// model needs before its event pass. The fast path is the footer probe —
// a frame walk that reads no events, so the model pass that follows is
// the file's only decode. The probe cannot answer for v1 streams (no
// framed footer), damaged files (the established "core: scanning"
// error contract must come from a real decode), lenient mode (the
// surviving-events counts may legitimately differ from the footer), or
// when the caller asked for pre-pass statistics; all of those fall back
// to the pre-pass.
func scanCounts(path string, cfg *config) ([]uint64, string, error) {
	if !cfg.lenient && cfg.preStats == nil {
		if fi, err := trace.ScanFooterFile(path); err == nil {
			return fi.Counts, fi.Name, nil
		}
	}
	return scanPrePass(path, cfg)
}

// blockReaderOpts resolves the block decoder's options: Workers(1) by
// default — each of the file's blocks decodes inline — or the configured
// count under WithWorkers.
func (c *config) blockReaderOpts() []trace.ReaderOption {
	ropts := []trace.ReaderOption{trace.Workers(1)}
	if c.lenient {
		ropts = append(ropts, trace.Lenient())
	}
	if c.ctx != nil {
		ropts = append(ropts, trace.WithContext(c.ctx))
	}
	if c.parallel {
		ropts[0] = trace.Workers(c.workers)
	}
	return ropts
}

// scanPrePass streams a trace file through the pre-pass and returns the
// static execution counts plus the workload name. The counts come from the
// footer when present (byte-identical to what a materializing reader would
// report); a footer lost to damage in lenient mode falls back to the
// pre-pass's own counts, which rebuild the same totals from the surviving
// events.
func scanPrePass(path string, cfg *config) ([]uint64, string, error) {
	r, f, err := openTraceReader(path, cfg)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	defer r.Close()
	defer noteDecode(path)()

	pre := dpg.NewPrePass(r.NumStatic())
	var e trace.Event
	for {
		err := r.Next(&e)
		if err == io.EOF {
			break
		}
		if err == nil {
			err = pre.Observe(&e)
		}
		if err != nil {
			return nil, "", fmt.Errorf("core: scanning %s: %w", path, wrapTraceErr(err))
		}
	}
	if cfg.preStats != nil {
		*cfg.preStats = pre.Stats()
	}
	counts := r.StaticCounts()
	if counts == nil {
		counts = pre.StaticCounts()
	}
	return counts, r.Name(), nil
}

// FileResult is one file's outcome in a multi-file analysis: either one
// Result per requested predictor kind, in kinds order, or the error that
// failed the file.
type FileResult struct {
	Path  string
	Res   []*dpg.Result
	Stats trace.Stats
	Err   error
}

// AnalyzeFiles runs AnalyzeFileKinds over several trace files with up to
// parallel concurrent analyses (0 or 1 = sequential), the same bounded
// worker-pool shape Suite.Precompute uses for model runs: each file is
// decoded once for every kind. Results keep the input order; per-file
// failures land in FileResult.Err without stopping the other files. Under
// WithContext, cancellation both aborts in-flight analyses and marks the
// files not yet started with ErrAborted. Like AnalyzeFileKinds it ignores
// WithKind and WithPredictor.
func AnalyzeFiles(paths []string, kinds []predictor.Kind, parallel int, opts ...Option) []FileResult {
	out := make([]FileResult, len(paths))
	parallel = min(max(parallel, 1), len(paths))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fr := &out[i]
				fr.Path = paths[i]
				perFile := append(append([]Option{}, opts...), WithTraceStats(&fr.Stats))
				fr.Res, fr.Err = AnalyzeFileKinds(paths[i], kinds, perFile...)
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
// name to dir/<name>.dpg when that file exists, so a suite reads
// pre-generated traces from disk instead of regenerating them.
func TraceDir(dir string) func(name string) (string, bool) {
	return func(name string) (string, bool) {
		p := filepath.Join(dir, name+".dpg")
		if _, err := os.Stat(p); err != nil {
			return "", false
		}
		return p, true
	}
}

// DumpJSON precomputes every (workload, predictor) model result, and none
// of the experiment products, and writes the results as a JSON object
// keyed "workload/predictor" — the machine-readable companion to the text
// figures, for plotting or downstream analysis. Array fields are indexed
// by the dpg enums (NodeClass, ArcUse, ArcLabel, GenClass, OpGroup) in
// declaration order.
func (s *Suite) DumpJSON(w io.Writer) error {
	if err := s.precompute(false); err != nil {
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
