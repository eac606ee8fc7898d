package core

import (
	"fmt"

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
// experiments read for one workload: one ILP simulator per predictor kind,
// and for integer workloads — the only ones those experiments cover — the
// correlation model, the reuse buffer, the confidence sweep and one
// speculation machine per threshold, never-speculate baseline first.
// Precompute skips it for trace-file workloads, whose fused pass computes
// every product.
func (s *Suite) productJobs(name string) []productJob {
	jobs := s.ilpJobs(name)
	if !isIntName(name) {
		return jobs
	}
	jobs = append(jobs, corrJob(name), reuseJob(name), confidenceJob(name))
	return append(jobs, specJobs(name)...)
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

// ilpJobs are the dataflow-limit simulators, one per suite predictor kind
// in suiteKinds order.
func (s *Suite) ilpJobs(name string) []productJob {
	kinds := s.suiteKinds()
	jobs := make([]productJob, len(kinds))
	for i, k := range kinds {
		jobs[i] = productJob{key: name + "/ilp/" + k.String(), run: func(t *trace.Trace) (any, error) {
			sim := analysis.NewILPSim(name, k)
			observeAll(t, sim.Observe)
			return sim.Stats(), nil
		}}
	}
	return jobs
}

func corrJob(name string) productJob {
	return productJob{key: name + "/corr", run: func(t *trace.Trace) (any, error) {
		return dpg.RunWith(t, suiteCorrConfig())
	}}
}

func reuseJob(name string) productJob {
	return productJob{key: name + "/reuse", run: func(t *trace.Trace) (any, error) {
		sim := analysis.NewReuseSim(name, suiteReuseBits)
		observeAll(t, sim.Observe)
		return sim.Stats(), nil
	}}
}

func confidenceJob(name string) productJob {
	return productJob{key: name + "/confidence", run: func(t *trace.Trace) (any, error) {
		sim := analysis.NewConfidenceSim(predictor.KindContext, suiteConfMaxLevel)
		observeAll(t, sim.Observe)
		return sim.Points(), nil
	}}
}

// specJobs are the speculation machines: the never-speculate baseline,
// then one per suiteSpecThresholds entry in order.
func specJobs(name string) []productJob {
	ths := append([]uint8{suiteSpecNever}, suiteSpecThresholds...)
	jobs := make([]productJob, len(ths))
	for i, th := range ths {
		jobs[i] = productJob{key: fmt.Sprintf("%s/spec/%d", name, th), run: func(t *trace.Trace) (any, error) {
			sim := analysis.NewSpecSim(name, predictor.KindContext, suiteSpecConfig(th))
			observeAll(t, sim.Observe)
			return sim.Stats(), nil
		}}
	}
	return jobs
}
