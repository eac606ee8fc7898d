package core

import (
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/dpg"
	"repro/internal/trace"
)

// modelObserver adapts the model pass pipeline to analysis.Observer, so
// the model can ride the observer fan-out next to experiment simulators.
// A pipeline error (a malformed event) sticks: subsequent events are
// ignored and Finish reports the error, which RunObservers wraps in a
// typed *analysis.ObserverError.
type modelObserver struct {
	pl  *dpg.Pipeline
	b   *dpg.Builder
	err error
	res *dpg.Result
}

// newModelObserver builds the model pipeline for one predictor
// configuration over pre-scanned static counts.
func newModelObserver(name string, counts []uint64, mcfg dpg.Config) (*modelObserver, error) {
	b, err := dpg.NewBuilder(name, counts, mcfg)
	if err != nil {
		return nil, err
	}
	return &modelObserver{pl: dpg.NewPipeline(b), b: b}, nil
}

// Observe feeds one event through the model pass.
func (m *modelObserver) Observe(e *trace.Event) {
	if m.err != nil {
		return
	}
	m.err = m.pl.Observe(e)
}

// Finish finalises the model and stores its result.
func (m *modelObserver) Finish() error {
	if m.err != nil {
		return m.err
	}
	m.res, m.err = m.b.Finish()
	return m.err
}

// decodeHook, when non-nil, is told about every full event decode of a
// trace file this package starts (the footer probe, which reads only
// frame headers, is not a decode); the function it returns, if non-nil,
// runs when that decode ends. Tests install it — with their own
// synchronisation inside the hook — to assert the one-decode-per-trace
// and one-fused-pass-at-a-time contracts of the fused engine.
var decodeHook func(path string) (end func())

// noteDecode reports the start of one event decode of path to the test
// seam and returns the function that reports its end.
func noteDecode(path string) (end func()) {
	if decodeHook != nil {
		if end := decodeHook(path); end != nil {
			return end
		}
	}
	return func() {}
}

// analyzeObservers is AnalyzeFile's fused second pass under
// WithObservers: one decode of the file feeds the model pipeline and
// every registered observer through analysis.RunObservers. The error
// contract matches the sequential path — decode failures surface as
// "core: streaming <path>: ..." with the trace taxonomy folded into the
// core sentinels — with observer failures additionally wrapped in typed
// *analysis.ObserverError values (joined when several fire).
func analyzeObservers(path, name string, counts []uint64, cfg *config) (*dpg.Result, error) {
	mo, err := newModelObserver(name, counts, cfg.model)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	_, ropts := cfg.blockReaderOpts()
	pr, err := trace.NewParallelReader(f, ropts...)
	if err != nil {
		return nil, wrapTraceErr(err)
	}
	defer pr.Close()
	defer noteDecode(path)()
	obs := append([]analysis.Observer{mo}, cfg.observers...)
	if err := analysis.RunObservers(pr, obs...); err != nil {
		return nil, fmt.Errorf("core: streaming %s: %w", path, wrapTraceErr(err))
	}
	if cfg.statsOut != nil {
		*cfg.statsOut = pr.Stats()
	}
	return mo.res, nil
}
