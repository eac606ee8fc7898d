package core

import (
	"repro/internal/predictor"
	"repro/internal/trace"
)

// Hooks for the external core_test package.

// TraceFor returns the suite's cached trace of one workload (traceFor).
func (s *Suite) TraceFor(name string) (*trace.Trace, error) { return s.traceFor(name) }

// ContextStreamProducts returns the suite's own products of the four
// streaming experiments for one integer workload, as its renderers read
// them: ILP and speculation from the context sweep.
func (s *Suite) ContextStreamProducts(name string) (*StreamProducts, error) {
	reuse, err := productFor[*StreamProducts](s, name, reuseJob(name))
	if err != nil {
		return nil, err
	}
	conf, err := productFor[*StreamProducts](s, name, confidenceJob(name))
	if err != nil {
		return nil, err
	}
	sweep, err := productFor[*StreamProducts](s, name, sweepJob(name, predictor.KindContext))
	if err != nil {
		return nil, err
	}
	return &StreamProducts{Reuse: reuse.Reuse, ILP: sweep.ILP, Confidence: conf.Confidence, Speculation: sweep.Speculation}, nil
}
