package dpg

import (
	"fmt"

	"repro/internal/predictor"
	"repro/internal/trace"
)

// Config parameterises a model run.
type Config struct {
	// Predictor constructs the value predictor. The builder calls it twice:
	// once for the input side and once for the output side (paper §3 keeps
	// them separate to prevent input/output short circuits).
	Predictor predictor.Factory
	// PredictorName labels the run in the Result.
	PredictorName string
	// GShareBits sizes the branch predictor (default
	// predictor.DefaultGShareBits, the paper's 64K entries).
	GShareBits int
	// SharedInputOutput, when set, uses a single predictor instance for
	// both inputs and outputs — the short-circuit configuration the paper
	// explicitly avoids. Exposed for the ablation benchmark.
	SharedInputOutput bool
	// DisablePaths turns off influence tracking (PathStats/TreeStats stay
	// zero). Classification results are unaffected; runs are faster.
	DisablePaths bool
	// GraphLimit, when positive, records the DPG fragment (nodes and
	// labeled arcs, as in the paper's Fig. 3) for the first GraphLimit
	// dynamic instructions into Result.Graph.
	GraphLimit int
	// CorrelateOutputs keys output predictions by (PC, current source
	// operand values) instead of PC alone — the correlation mechanism the
	// paper proposes in §6 ("perform output predictions by correlating on
	// predecessor instructions' input values") to attack p,p->n and
	// p,i->n terminations. Source values are architecturally available
	// when the output is produced, so the configuration is realisable.
	CorrelateOutputs bool
}

// Builder streams a dynamic instruction trace through the model. It is a
// thin façade over the sequential model pass (see modelpass.go).
// Create with NewBuilder, feed events in execution order via Observe, then
// call Finish exactly once.
type Builder struct {
	m *modelPass
}

// NewBuilder prepares a model run for the named workload. staticCount must
// give per-PC execution counts for the whole trace (trace.Trace carries
// them; a streaming producer must supply them from a pre-pass, e.g.
// PrePass.StaticCounts) — the model needs them up front to recognise
// write-once producers.
//
// Configuration problems — a nil predictor factory, or predictor/branch-
// predictor construction rejecting its parameters — return an error
// matching ErrConfig; constructor panics are converted, never propagated.
func NewBuilder(name string, staticCount []uint64, cfg Config) (*Builder, error) {
	m, err := newModelPass(name, staticCount, cfg)
	if err != nil {
		return nil, err
	}
	return &Builder{m: m}, nil
}

// Observe feeds one dynamic instruction to the model. Events with
// out-of-range fields — which would otherwise index past the register
// file or the static-count table — are rejected with an error matching
// ErrMalformedEvent and leave the model state untouched.
func (b *Builder) Observe(e *trace.Event) error {
	return b.m.Observe(e)
}

// Finish closes the run and returns the accumulated Result. The Builder
// must not be used afterwards.
func (b *Builder) Finish() (*Result, error) {
	return b.m.Finish()
}

// Run executes the model over an in-memory trace with one of the paper's
// standard predictors.
func Run(t *trace.Trace, kind predictor.Kind) (*Result, error) {
	return RunWith(t, Config{Predictor: kind.Factory(), PredictorName: kind.String()})
}

// RunWith executes the model over an in-memory trace with a custom
// configuration. Errors match ErrConfig (bad configuration) or
// ErrMalformedEvent (out-of-range event fields) and never panic.
func RunWith(t *trace.Trace, cfg Config) (*Result, error) {
	if t == nil {
		return nil, fmt.Errorf("%w: nil trace", ErrConfig)
	}
	b, err := NewBuilder(t.Name, t.StaticCount, cfg)
	if err != nil {
		return nil, err
	}
	for i := range t.Events {
		if err := b.Observe(&t.Events[i]); err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
	}
	return b.Finish()
}
