package core

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// modelObserver adapts the model pass to analysis.BlockObserver, so the
// model can ride the observer fan-out next to experiment simulators. A
// model error (a malformed event) sticks: subsequent events are
// ignored and Finish reports the error, which RunObservers wraps in a
// typed *analysis.ObserverError.
type modelObserver struct {
	b   *dpg.Builder
	err error
	res *dpg.Result
}

// Observe feeds one event through the model pass.
func (m *modelObserver) Observe(e *trace.Event) {
	if m.err != nil {
		return
	}
	m.err = m.b.Observe(e)
}

// ObserveBlock feeds a block's events through the model pass, stopping
// at the first error.
func (m *modelObserver) ObserveBlock(b *trace.Block) {
	for i := range b.Events {
		if m.err != nil {
			return
		}
		m.err = m.b.Observe(&b.Events[i])
	}
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
// contracts of the file entry points and the suite.
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

// AnalyzeFileKinds runs the model under every predictor in kinds over one
// decode of a trace file and returns the results in kinds order. Each
// result is identical to AnalyzeFile(path, WithKind(k), opts...): the
// static counts are read once (the footer probe, or the pre-pass where
// AnalyzeFile would run it), then the file streams once through
// analysis.RunObservers into one model pass per kind, each on its own
// goroutine, next to any WithObservers observers. The model option
// WithGraphLimit applies to every kind; WithKind and WithPredictor are
// overridden. The error contract is AnalyzeFile's.
func AnalyzeFileKinds(path string, kinds []predictor.Kind, opts ...Option) ([]*dpg.Result, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	if err := cfg.ctxErr(); err != nil {
		return nil, wrapAbort(err)
	}
	counts, name, err := scanCounts(path, &cfg)
	if err != nil {
		return nil, err
	}
	models := make([]dpg.Config, len(kinds))
	for i, k := range kinds {
		models[i] = cfg.model
		models[i].Predictor = k.Factory()
		models[i].PredictorName = k.String()
	}
	return analyzeModels(path, name, counts, &cfg, models)
}

// analyzeModels is the one decode behind AnalyzeFileKinds (and so
// AnalyzeFiles and AnalyzeDir) and AnalyzeFile: it opens path and
// streams its blocks once through analysis.RunObservers into one model
// pass per configuration in models plus every cfg.observers observer,
// and returns the model results in models order. Decode failures surface as "core: streaming
// <path>: ..." with the trace taxonomy folded into the core sentinels;
// model failures (a malformed event) additionally arrive wrapped in
// typed *analysis.ObserverError values, joined when several fire.
func analyzeModels(path, name string, counts []uint64, cfg *config, models []dpg.Config) ([]*dpg.Result, error) {
	mos := make([]*modelObserver, len(models))
	obs := make([]analysis.Observer, 0, len(models)+len(cfg.observers))
	for i, mcfg := range models {
		b, err := dpg.NewBuilder(name, counts, mcfg)
		if err != nil {
			return nil, err
		}
		mos[i] = &modelObserver{b: b}
		obs = append(obs, mos[i])
	}
	obs = append(obs, cfg.observers...)

	pr, f, err := openTraceReader(path, cfg)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	defer pr.Close()
	defer noteDecode(path)()
	if err := analysis.RunObservers(pr, obs...); err != nil {
		return nil, fmt.Errorf("core: streaming %s: %w", path, wrapTraceErr(err))
	}
	if cfg.statsOut != nil {
		*cfg.statsOut = pr.Stats()
	}
	out := make([]*dpg.Result, len(mos))
	for i, mo := range mos {
		out[i] = mo.res
	}
	return out, nil
}
