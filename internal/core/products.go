package core

import (
	"repro/internal/analysis"
	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// This file holds the in-memory suite's experiment products: everything
// the correlation, reuse, confidence, ILP and speculation experiments read
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

// product returns (and memoises) the product under key, computing it at
// most once across concurrent callers. A failed computation is evicted, as
// in Result, so a later call retries instead of replaying a stale error.
func (s *Suite) product(key string, compute func() (any, error)) (any, error) {
	s.mu.Lock()
	pe, ok := s.products[key]
	if !ok {
		pe = &productEntry{done: make(chan struct{})}
		s.products[key] = pe
	}
	s.mu.Unlock()
	if ok {
		<-pe.done
		return pe.val, pe.err
	}
	defer close(pe.done)
	pe.val, pe.err = compute()
	if pe.err != nil {
		s.mu.Lock()
		if s.products[key] == pe {
			delete(s.products, key)
		}
		s.mu.Unlock()
	}
	return pe.val, pe.err
}

// memoised fills vals with the memoised products of jobs, waiting out any
// still in flight. It reports false when one is missing: nothing was
// precomputed, or its job failed and was evicted.
func (s *Suite) memoised(jobs []productJob, vals []any) bool {
	for i, j := range jobs {
		s.mu.Lock()
		pe := s.products[j.key]
		s.mu.Unlock()
		if pe == nil {
			return false
		}
		<-pe.done
		if pe.err != nil {
			return false
		}
		vals[i] = pe.val
	}
	return true
}

// productsFor returns the products of jobs for one workload: the memoised
// ones when Precompute computed them all, otherwise a fresh run of every
// job over one regenerated trace, not memoised (the trace cache is left
// alone, so nothing outlives the experiment).
func productsFor[T any](s *Suite, name string, jobs []productJob) ([]T, error) {
	vals := make([]any, len(jobs))
	if !s.memoised(jobs, vals) {
		t, err := s.traceOnce(name)
		if err != nil {
			return nil, err
		}
		for i, j := range jobs {
			if vals[i], err = j.run(t); err != nil {
				return nil, err
			}
		}
	}
	out := make([]T, len(vals))
	for i, v := range vals {
		out[i] = v.(T)
	}
	return out, nil
}

// productFor is productsFor for a single job.
func productFor[T any](s *Suite, name string, job productJob) (T, error) {
	out, err := productsFor[T](s, name, []productJob{job})
	if err != nil {
		var zero T
		return zero, err
	}
	return out[0], nil
}

// productJobs lists, in scheduling order, every product the suite's
// experiments read for one workload: one sweep per predictor kind (the
// ILP study, and under context the speculation gates too) and, for
// integer workloads (the only ones those experiments cover), the
// correlation model, the reuse buffer and the confidence sweep. The
// context sweep and the correlation model, the heavy jobs, go first: a
// workload's last jobs overlap the next workload's trace and model runs,
// so a heavy job at the tail raises the suite's peak memory. Precompute
// skips it for trace-file workloads, whose fused pass computes every
// product.
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

// sweepJobs are the ILP study's sweeps, one per suite predictor kind in
// suiteKinds order.
func (s *Suite) sweepJobs(name string) []productJob {
	kinds := s.suiteKinds()
	jobs := make([]productJob, len(kinds))
	for i, k := range kinds {
		jobs[i] = sweepJob(name, k)
	}
	return jobs
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
