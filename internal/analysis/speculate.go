package analysis

import (
	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// SpecConfig parameterises the value-speculation timing model: a W-wide
// machine with unit-latency execution, unbounded window, perfect control
// prediction, and value speculation gated by a confidence threshold.
// Mispredicted speculations charge a recovery penalty to the consuming
// instruction — an approximation of squash-and-reexecute.
//
// This is the quantitative form of the paper's §1.2 argument: "for the
// potential to be realized, it is imperative to have high prediction
// accuracy and infrequent misspeculation. Misspeculation can be mitigated
// somewhat with the use of confidence mechanisms; these are probably
// essential."
type SpecConfig struct {
	// Width is the fetch/issue width (instructions per cycle).
	Width int
	// Threshold gates speculation: operands are used speculatively only
	// when their confidence counter is at least Threshold. 0 speculates on
	// every available prediction.
	Threshold uint8
	// MaxConfidence saturates the confidence counters.
	MaxConfidence uint8
	// Penalty is the recovery charge (cycles) for consuming a wrong
	// speculated value.
	Penalty uint64
}

// SpecStats is the outcome of one timing-model run.
type SpecStats struct {
	Name         string
	Predictor    string
	Config       SpecConfig
	Instructions uint64
	Cycles       uint64
	// Speculations counts operands consumed speculatively; Misspeculations
	// the wrong ones.
	Speculations    uint64
	Misspeculations uint64
}

// IPC returns instructions per cycle.
func (s SpecStats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// MisspecPct returns the fraction of speculations that were wrong.
func (s SpecStats) MisspecPct() float64 {
	if s.Speculations == 0 {
		return 0
	}
	return 100 * float64(s.Misspeculations) / float64(s.Speculations)
}

// specNever is a gate above counter saturation (for MaxConfidence 7): a
// timeline at this threshold never speculates, the sweep's baseline.
const specNever uint8 = 8

// SweepConfig is one machine read at several confidence gates: the
// SpecConfig fields every timeline shares, plus one Threshold per
// timeline.
type SweepConfig struct {
	Width         int
	MaxConfidence uint8
	Penalty       uint64
	Thresholds    []uint8
}

// SpeculationSweep returns the speculation experiment's machine — 64-wide,
// 8-cycle recovery, confidence counters saturating at 7 — and its gates:
// the never-speculate baseline first, then the thresholds 0, 1, 3 and 7.
// Core's streaming-experiment table reads it for both the figures suite
// and dpgd's ?experiments=.
func SpeculationSweep() SweepConfig {
	return SweepConfig{Width: 64, MaxConfidence: 7, Penalty: 8, Thresholds: []uint8{specNever, 0, 1, 3, 7}}
}

// SweepStats is the outcome of one sweep: the dataflow-limit study under
// the sweep's predictor and one timing-model run per threshold, in
// SweepConfig.Thresholds order.
type SweepStats struct {
	ILP  ILPStats
	Spec []SpecStats
}

// SpecSweep is the streaming form of the dataflow-limit study and of the
// speculation threshold sweep: feed events one at a time with Observe and
// read every timeline with Stats. One confidence-gated
// predictor on the consumer side (per (PC, slot) keys, immediate update —
// the model's input-side arrangement) resolves each operand once; the
// verdict then advances the two ILP timelines (base and value-predicted)
// and one timing-model timeline per threshold, because the thresholds
// only gate what is counted, never what the predictor sees. The fetch
// cycle of each instruction is its position in the observed stream
// divided by the machine width. Memory stays O(touched memory words ×
// timelines + one predictor), independent of trace length.
type SpecSweep struct {
	cfg      SweepConfig
	name     string
	predName string
	pred     *predictor.Confidence
	// Ready cycles, one row of lanes per register and per stored word:
	// lane 0 is the ILP base timeline, lane 1 the ILP value-predicted
	// one, lane 2+i the timing model at Thresholds[i].
	lanes   int
	regs    []uint64
	memRow  map[uint32]int // word address -> row offset into mem
	mem     []uint64
	zero    []uint64 // the row of a never-stored word
	ready   []uint64 // per-event scratch: input-ready cycle per lane
	penalty []uint64 // per-event scratch: recovery charge per threshold
	last    []uint64 // per lane: the latest completion cycle
	specs   []uint64
	misses  []uint64
	idx     uint64
}

// NewSpecSweep builds a sweep with the given predictor kind. A zero cfg
// runs the ILP timelines alone. It panics if cfg has gates and cfg.Width
// is not positive; a zero cfg.MaxConfidence defaults to 7.
func NewSpecSweep(name string, kind predictor.Kind, cfg SweepConfig) *SpecSweep {
	if cfg.Width <= 0 {
		if len(cfg.Thresholds) > 0 {
			panic("analysis: speculation width must be positive")
		}
		cfg.Width = 1 // no gate reads the fetch cycle
	}
	if cfg.MaxConfidence == 0 {
		cfg.MaxConfidence = 7
	}
	cfg.Thresholds = append([]uint8(nil), cfg.Thresholds...)
	n := len(cfg.Thresholds)
	lanes := 2 + n
	return &SpecSweep{
		cfg:      cfg,
		name:     name,
		predName: kind.String(),
		pred:     predictor.NewConfidence(kind.New(), 16, cfg.MaxConfidence),
		lanes:    lanes,
		regs:     make([]uint64, isa.NumRegs*lanes),
		memRow:   make(map[uint32]int),
		zero:     make([]uint64, lanes),
		ready:    make([]uint64, lanes),
		penalty:  make([]uint64, n),
		last:     make([]uint64, lanes),
		specs:    make([]uint64, n),
		misses:   make([]uint64, n),
	}
}

// Observe issues one dynamic instruction on every timeline.
func (s *SpecSweep) Observe(e *trace.Event) {
	fetch := s.idx / uint64(s.cfg.Width)
	s.idx++
	s.ready[0], s.ready[1] = 0, 0
	for i := range s.penalty {
		s.ready[2+i] = fetch
		s.penalty[i] = 0
	}

	for slot := 0; slot < int(e.NSrc); slot++ {
		if r := e.SrcReg[slot]; r != 0 { // $0 reads are immediates
			s.consume(s.regs[int(r)*s.lanes:][:s.lanes], uint64(e.PC)<<2|uint64(slot), e.SrcVal[slot])
		}
	}
	if isa.IsLoad(e.Op) {
		row := s.zero
		if off, ok := s.memRow[e.Addr&^3]; ok {
			row = s.mem[off : off+s.lanes]
		}
		s.consume(row, uint64(e.PC)<<2|2, e.MemVal)
	}

	// Completion cycles, written over the scratch row.
	done := s.ready
	for l := range done {
		done[l]++
		if l >= 2 {
			done[l] += s.penalty[l-2]
		}
		if done[l] > s.last[l] {
			s.last[l] = done[l]
		}
	}
	switch {
	case isa.IsStore(e.Op):
		off, ok := s.memRow[e.Addr&^3]
		if !ok {
			off = len(s.mem)
			s.memRow[e.Addr&^3] = off
			s.mem = append(s.mem, s.zero...)
		}
		copy(s.mem[off:], done)
	case e.DstReg != isa.NoReg && e.DstReg != 0:
		copy(s.regs[int(e.DstReg)*s.lanes:], done)
	}
}

// consume resolves one operand whose producer completes at avail (one
// cycle per lane) and folds it into every timeline's input-ready cycle.
func (s *SpecSweep) consume(avail []uint64, key uint64, actual uint32) {
	conf, pv, ok := s.pred.Verdict(key, actual)
	hit := ok && pv == actual
	s.ready[0] = max(s.ready[0], avail[0])
	if !hit { // a predicted operand costs the VP timeline no wait
		s.ready[1] = max(s.ready[1], avail[1])
	}
	for i, th := range s.cfg.Thresholds {
		if ok && conf >= th {
			s.specs[i]++
			if hit {
				continue // speculated correctly: no wait
			}
			s.misses[i]++
			s.penalty[i] += s.cfg.Penalty
		}
		s.ready[2+i] = max(s.ready[2+i], avail[2+i])
	}
}

// Stats returns every timeline's statistics for the events observed so
// far.
func (s *SpecSweep) Stats() SweepStats {
	out := SweepStats{
		ILP: ILPStats{
			Name: s.name, Predictor: s.predName, Instructions: s.idx,
			CritPathBase: s.last[0], CritPathVP: s.last[1],
		},
		Spec: make([]SpecStats, len(s.cfg.Thresholds)),
	}
	for i, th := range s.cfg.Thresholds {
		out.Spec[i] = SpecStats{
			Name: s.name, Predictor: s.predName,
			Config: SpecConfig{
				Width: s.cfg.Width, Threshold: th,
				MaxConfidence: s.cfg.MaxConfidence, Penalty: s.cfg.Penalty,
			},
			Instructions: s.idx, Cycles: s.last[2+i],
			Speculations: s.specs[i], Misspeculations: s.misses[i],
		}
	}
	return out
}

// Speculate runs the timing model at one threshold over an in-memory
// trace — a one-gate SpecSweep.
func Speculate(t *trace.Trace, kind predictor.Kind, cfg SpecConfig) SpecStats {
	sw := NewSpecSweep(t.Name, kind, SweepConfig{
		Width: cfg.Width, MaxConfidence: cfg.MaxConfidence, Penalty: cfg.Penalty,
		Thresholds: []uint8{cfg.Threshold},
	})
	for i := range t.Events {
		sw.Observe(&t.Events[i])
	}
	return sw.Stats().Spec[0]
}
