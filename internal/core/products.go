package core

import (
	"repro/internal/analysis"
	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// This file holds the suite's experiment products: everything the
// correlation, reuse, confidence, ILP and speculation experiments read
// besides the standard model results. Each product is one job — a single
// simulator, or the correlation model, run over the workload's trace — so
// Precompute can spread them over its worker pool next to the model runs,
// every job reading the workload's one cached trace.

// productJob computes one experiment product of one workload.
type productJob struct {
	key string
	run func(t *trace.Trace) (any, error)
}

// productEntry is the singleflight slot for one memoised product.
type productEntry struct {
	done chan struct{} // closed once val and err are set
	val  any
	err  error
}

// product returns (and memoises) the product of job over the workload's
// cached trace (see traceFor), computing it at most once across
// concurrent callers. A failed computation is evicted, as in Result, so a
// later call retries instead of replaying a stale error.
func (s *Suite) product(name string, job productJob) (any, error) {
	s.mu.Lock()
	pe, ok := s.products[job.key]
	if !ok {
		pe = &productEntry{done: make(chan struct{})}
		s.products[job.key] = pe
	}
	s.mu.Unlock()
	if ok {
		<-pe.done
		return pe.val, pe.err
	}
	defer close(pe.done)
	t, err := s.traceFor(name)
	if err == nil {
		pe.val, err = job.run(t)
	}
	pe.err = err
	if err != nil {
		s.mu.Lock()
		if s.products[job.key] == pe {
			delete(s.products, job.key)
		}
		s.mu.Unlock()
	}
	return pe.val, pe.err
}

// productFor returns the product of job for one workload (see product).
func productFor[T any](s *Suite, name string, job productJob) (T, error) {
	v, err := s.product(name, job)
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// --- per-experiment accessors ---------------------------------------------
//
// Each experiment's renderer asks for its product through one of these:
// memoised by Precompute, or computed on demand over the workload's
// cached trace.

// correlationResult returns the correlation-model result for one workload.
func (s *Suite) correlationResult(name string) (*dpg.Result, error) {
	return productFor[*dpg.Result](s, name, corrJob(name))
}

// reuseStats returns the reuse-buffer totals for one workload.
func (s *Suite) reuseStats(name string) (analysis.ReuseStats, error) {
	return productFor[analysis.ReuseStats](s, name, reuseJob(name))
}

// confidencePoints returns the confidence sweep for one workload.
func (s *Suite) confidencePoints(name string) ([]analysis.ConfidencePoint, error) {
	return productFor[[]analysis.ConfidencePoint](s, name, confidenceJob(name))
}

// ilpStats returns the dataflow-limit statistics for one workload, one
// entry per predictor kind in suiteKinds order.
func (s *Suite) ilpStats(name string) ([]analysis.ILPStats, error) {
	kinds := s.suiteKinds()
	out := make([]analysis.ILPStats, len(kinds))
	for i, k := range kinds {
		sweep, err := productFor[analysis.SweepStats](s, name, sweepJob(name, k))
		if err != nil {
			return nil, err
		}
		out[i] = sweep.ILP
	}
	return out, nil
}

// speculationStats returns the speculation experiment's timelines for one
// workload, in SpeculationSweep().Thresholds order: the never-speculate
// baseline first.
func (s *Suite) speculationStats(name string) ([]analysis.SpecStats, error) {
	sweep, err := productFor[analysis.SweepStats](s, name, sweepJob(name, predictor.KindContext))
	return sweep.Spec, err
}

// productJobs lists, in scheduling order, every product the suite's
// experiments read for one workload: one sweep per predictor kind (the
// ILP study, and under context the speculation gates too) and, for
// integer workloads (the only ones those experiments cover), the
// correlation model, the reuse buffer and the confidence sweep. The
// context sweep and the correlation model, the heavy jobs, go first: a
// workload's last jobs overlap the next workload's trace and model runs,
// so a heavy job at the tail raises the suite's peak memory.
func (s *Suite) productJobs(name string) []productJob {
	isInt := isIntName(name)
	jobs := []productJob{sweepJob(name, predictor.KindContext)}
	if isInt {
		jobs = append(jobs, corrJob(name))
	}
	for _, k := range s.suiteKinds() {
		if k != predictor.KindContext {
			jobs = append(jobs, sweepJob(name, k))
		}
	}
	if isInt {
		jobs = append(jobs, reuseJob(name), confidenceJob(name))
	}
	return jobs
}

func isIntName(name string) bool {
	for _, n := range intNames() {
		if n == name {
			return true
		}
	}
	return false
}

// observeAll feeds every event of t to observe, in order.
func observeAll(t *trace.Trace, observe func(*trace.Event)) {
	for i := range t.Events {
		observe(&t.Events[i])
	}
}

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

// sweepJob runs one workload's sweep under predictor kind k (see
// suiteSweepConfig). It returns plain stats, so no predictor outlives
// the job.
func sweepJob(name string, k predictor.Kind) productJob {
	return productJob{key: name + "/sweep/" + k.String(), run: func(t *trace.Trace) (any, error) {
		sw := analysis.NewSpecSweep(name, k, suiteSweepConfig(name, k))
		observeAll(t, sw.Observe)
		return sw.Stats(), nil
	}}
}

func corrJob(name string) productJob {
	return productJob{key: name + "/corr", run: func(t *trace.Trace) (any, error) {
		return dpg.RunWith(t, suiteCorrConfig())
	}}
}

func reuseJob(name string) productJob {
	return productJob{key: name + "/reuse", run: func(t *trace.Trace) (any, error) {
		sim := analysis.NewReuseSim(name, analysis.ReuseBits)
		observeAll(t, sim.Observe)
		return sim.Stats(), nil
	}}
}

func confidenceJob(name string) productJob {
	return productJob{key: name + "/confidence", run: func(t *trace.Trace) (any, error) {
		sim := analysis.NewConfidenceSim(predictor.KindContext, analysis.ConfMaxLevel)
		observeAll(t, sim.Observe)
		return sim.Points(), nil
	}}
}
