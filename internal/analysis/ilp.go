package analysis

import (
	"repro/internal/predictor"
	"repro/internal/trace"
)

// ILPStats quantifies the paper's motivation (§1, and its reference [9],
// Lipasti & Shen, "Exceeding the Dataflow Limit via Value Prediction"):
// how much instruction-level parallelism the dynamic dependence graph
// permits, and how much more becomes available when correctly predicted
// values break true dependences.
//
// The timing model is the classic dataflow limit: unit latency, unbounded
// resources, perfect control prediction (only data dependences constrain
// issue). With value prediction, an operand whose consumer-side prediction
// is correct is available immediately (verification is off the critical
// path, as in speculative execution with eventual confirmation).
type ILPStats struct {
	Name      string
	Predictor string
	// Instructions is the dynamic instruction count.
	Instructions uint64
	// CritPathBase is the dataflow critical path with no prediction;
	// CritPathVP the critical path with value prediction.
	CritPathBase uint64
	CritPathVP   uint64
}

// ILPBase returns instructions per cycle at the dataflow limit.
func (s ILPStats) ILPBase() float64 {
	if s.CritPathBase == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.CritPathBase)
}

// ILPVP returns instructions per cycle with value prediction.
func (s ILPStats) ILPVP() float64 {
	if s.CritPathVP == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.CritPathVP)
}

// Speedup returns the dataflow-limit speedup value prediction buys.
func (s ILPStats) Speedup() float64 {
	if s.CritPathVP == 0 {
		return 0
	}
	return float64(s.CritPathBase) / float64(s.CritPathVP)
}

// ILP computes the dataflow-limit statistics for an in-memory trace: a
// SpecSweep with no gates.
func ILP(t *trace.Trace, kind predictor.Kind) ILPStats {
	sw := NewSpecSweep(t.Name, kind, SweepConfig{})
	for i := range t.Events {
		sw.Observe(&t.Events[i])
	}
	return sw.Stats().ILP
}
