package core

import (
	"fmt"
	"sync"

	"repro/internal/analysis"
	"repro/internal/dpg"
	"repro/internal/predictor"
)

// This file is the suite's fused single-pass experiment engine. Under
// TraceFile, one streaming decode of each workload's trace feeds every
// consumer at once — the model pipeline for every suite predictor,
// the correlation model, and the streaming experiment simulators (reuse,
// ILP, confidence, speculation) — through the observer fan-out
// (analysis.RunObservers). The first experiment to touch a workload pays
// for the decode; everything after reads cached products. figures
// -tracedir therefore reads every trace file exactly once (the footer
// probe that recovers the model's static counts reads only frame headers,
// no events), at O(block·workers) peak memory regardless of how many
// experiments run.

// suiteSweepConfig is the sweep the suite runs under predictor kind k on
// one workload: every kind's sweep yields its ILP entry, and the context
// sweep on integer workloads (the only ones the speculation experiment
// covers) also carries the speculation experiment's gates.
func suiteSweepConfig(name string, k predictor.Kind) analysis.SweepConfig {
	if k != predictor.KindContext || !isIntName(name) {
		return analysis.SweepConfig{}
	}
	return analysis.SpeculationSweep()
}

// suiteCorrConfig is the correlation experiment's model configuration:
// output prediction keyed by (PC, input values) instead of PC alone.
func suiteCorrConfig() dpg.Config {
	return dpg.Config{
		Predictor:        predictor.KindContext.Factory(),
		PredictorName:    "context+corr",
		CorrelateOutputs: true,
	}
}

// fusedProducts is everything one decode of a workload's trace file
// yields. The model results cover every predictor kind; the experiment
// products (corr, reuse, confidence, speculation) are populated only for
// integer workloads — the only ones whose experiments consume them — and
// ilp for all.
type fusedProducts struct {
	model      map[predictor.Kind]*dpg.Result
	corr       *dpg.Result
	reuse      analysis.ReuseStats
	ilp        []analysis.ILPStats // indexed like Suite.suiteKinds()
	confidence []analysis.ConfidencePoint
	spec       []analysis.SpecStats // indexed like SpeculationSweep().Thresholds
}

// fusedEntry is the singleflight slot for one workload's fused run.
type fusedEntry struct {
	once sync.Once
	p    *fusedProducts
	err  error
}

// fusedFor returns (and caches) the fused products for one workload's
// trace file. Concurrent callers for the same workload collapse into one
// decode; a failed run is evicted so a later call retries instead of
// replaying a stale error (the same consistency-over-memoisation policy
// as the result cache).
func (s *Suite) fusedFor(name, path string) (*fusedProducts, error) {
	s.mu.Lock()
	fe := s.fused[name]
	if fe == nil {
		fe = &fusedEntry{}
		s.fused[name] = fe
	}
	s.mu.Unlock()
	fe.once.Do(func() {
		fe.p, fe.err = s.fusedOnce(name, path)
	})
	if fe.err != nil {
		s.mu.Lock()
		if s.fused[name] == fe {
			delete(s.fused, name)
		}
		s.mu.Unlock()
	}
	return fe.p, fe.err
}

// fusedOnce runs the one decode that serves every experiment on one
// workload: a model pass per suite kind (plus the correlation model on
// integer workloads) and the streaming simulators, all through
// analyzeModels. Observers are registered in a fixed order; order is
// irrelevant to results (each observer only reads the shared events), as
// the metamorphic tests prove.
func (s *Suite) fusedOnce(name, path string) (*fusedProducts, error) {
	cfg := config{parallel: true, workers: s.cfg.Workers}
	counts, tname, err := scanCounts(path, &cfg)
	if err != nil {
		return nil, err
	}
	isInt := isIntName(name)

	kinds := s.suiteKinds()
	models := make([]dpg.Config, 0, len(kinds)+1)
	for _, k := range kinds {
		models = append(models, dpg.Config{Predictor: k.Factory(), PredictorName: k.String()})
	}
	sweeps := make([]*analysis.SpecSweep, len(kinds))
	for i, k := range kinds {
		sweeps[i] = analysis.NewSpecSweep(tname, k, suiteSweepConfig(name, k))
		cfg.observers = append(cfg.observers, sweeps[i])
	}
	var (
		reuse *analysis.ReuseSim
		conf  *analysis.ConfidenceSim
	)
	if isInt {
		models = append(models, suiteCorrConfig())
		reuse = analysis.NewReuseSim(tname, analysis.ReuseBits)
		conf = analysis.NewConfidenceSim(predictor.KindContext, analysis.ConfMaxLevel)
		cfg.observers = append(cfg.observers, reuse, conf)
	}

	if s.cfg.Progress != nil {
		fmt.Fprintf(s.cfg.Progress, "fusing %-5s (%d observers, one decode) from %s\n",
			name, len(models)+len(cfg.observers), path)
	}
	res, err := analyzeModels(path, tname, counts, &cfg, models)
	if err != nil {
		return nil, err
	}

	p := &fusedProducts{model: make(map[predictor.Kind]*dpg.Result, len(kinds))}
	for i, k := range kinds {
		p.model[k] = res[i]
	}
	p.ilp = make([]analysis.ILPStats, len(sweeps))
	for i, sw := range sweeps {
		st := sw.Stats()
		p.ilp[i] = st.ILP
		if len(st.Spec) > 0 {
			p.spec = st.Spec
		}
	}
	if isInt {
		p.corr = res[len(kinds)]
		p.reuse = reuse.Stats()
		p.confidence = conf.Points()
	}
	return p, nil
}

// --- per-experiment accessors ---------------------------------------------
//
// Each experiment's renderer asks for its product through one of these:
// under TraceFile the fused engine's cached products answer, otherwise the
// in-memory products (see products.go) — memoised by Precompute, or run
// on demand over one regenerated trace per experiment.

// correlationResult returns the correlation-model result for one workload.
func (s *Suite) correlationResult(name string) (*dpg.Result, error) {
	if path, ok := s.traceFilePath(name); ok {
		p, err := s.fusedFor(name, path)
		if err != nil {
			return nil, err
		}
		return p.corr, nil
	}
	return productFor[*dpg.Result](s, name, corrJob(name))
}

// reuseStats returns the reuse-buffer totals for one workload.
func (s *Suite) reuseStats(name string) (analysis.ReuseStats, error) {
	if path, ok := s.traceFilePath(name); ok {
		p, err := s.fusedFor(name, path)
		if err != nil {
			return analysis.ReuseStats{}, err
		}
		return p.reuse, nil
	}
	return productFor[analysis.ReuseStats](s, name, reuseJob(name))
}

// confidencePoints returns the confidence sweep for one workload.
func (s *Suite) confidencePoints(name string) ([]analysis.ConfidencePoint, error) {
	if path, ok := s.traceFilePath(name); ok {
		p, err := s.fusedFor(name, path)
		if err != nil {
			return nil, err
		}
		return p.confidence, nil
	}
	return productFor[[]analysis.ConfidencePoint](s, name, confidenceJob(name))
}

// ilpStats returns the dataflow-limit statistics for one workload, one
// entry per predictor kind in suiteKinds order.
func (s *Suite) ilpStats(name string) ([]analysis.ILPStats, error) {
	if path, ok := s.traceFilePath(name); ok {
		p, err := s.fusedFor(name, path)
		if err != nil {
			return nil, err
		}
		return p.ilp, nil
	}
	sweeps, err := productsFor[analysis.SweepStats](s, name, s.sweepJobs(name))
	if err != nil {
		return nil, err
	}
	out := make([]analysis.ILPStats, len(sweeps))
	for i, sw := range sweeps {
		out[i] = sw.ILP
	}
	return out, nil
}

// speculationStats returns the speculation experiment's timelines for one
// workload, in SpeculationSweep().Thresholds order: the never-speculate
// baseline first.
func (s *Suite) speculationStats(name string) ([]analysis.SpecStats, error) {
	if path, ok := s.traceFilePath(name); ok {
		p, err := s.fusedFor(name, path)
		if err != nil {
			return nil, err
		}
		return p.spec, nil
	}
	sweep, err := productFor[analysis.SweepStats](s, name, sweepJob(name, predictor.KindContext))
	return sweep.Spec, err
}
