package analysis

import (
	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// ConfidencePoint is one point of a confidence sweep: at a gating threshold
// t, the fraction of value-producing instructions whose prediction would be
// attempted (confidence >= t) and the accuracy of those attempts. The paper
// (§1.2) points at confidence mechanisms as essential for turning
// predictability into speculation; the sweep shows the coverage/accuracy
// trade the mechanism buys.
type ConfidencePoint struct {
	Threshold   uint8
	CoveragePct float64
	AccuracyPct float64
}

// ConfidenceSim is the streaming form of the confidence sweep: feed events
// one at a time with Observe and read the per-threshold points with
// Points. Memory stays O(predictor + maxLevel), independent of trace
// length, so a suite can drive it straight off a trace-file reader without
// materializing the events.
type ConfidenceSim struct {
	p        *predictor.Confidence
	maxLevel uint8
	attempts []uint64
	hits     []uint64
	total    uint64
}

// NewConfidenceSim simulates output-side value prediction (per-PC keys,
// like the model's output predictor; pass-through instructions and
// branches are excluded) gated by a saturating confidence counter with
// levels 0..maxLevel.
func NewConfidenceSim(kind predictor.Kind, maxLevel uint8) *ConfidenceSim {
	return &ConfidenceSim{
		p:        predictor.NewConfidence(kind.New(), 16, maxLevel),
		maxLevel: maxLevel,
		attempts: make([]uint64, maxLevel+1),
		hits:     make([]uint64, maxLevel+1),
	}
}

// Observe feeds one dynamic instruction through the gated predictor.
func (c *ConfidenceSim) Observe(e *trace.Event) {
	if !isa.InfoFor(e.Op).HasRd || isa.IsPassThrough(e.Op) || isa.IsBranch(e.Op) || e.Op == isa.OpJal {
		return
	}
	conf, pred, ok := c.p.Verdict(uint64(e.PC), e.DstVal)
	correct := ok && pred == e.DstVal
	c.total++
	for th := uint8(0); th <= c.maxLevel; th++ {
		if conf >= th {
			c.attempts[th]++
			if correct {
				c.hits[th]++
			}
		}
	}
}

// Points returns one coverage/accuracy point per threshold 0..maxLevel for
// the events observed so far.
func (c *ConfidenceSim) Points() []ConfidencePoint {
	points := make([]ConfidencePoint, 0, c.maxLevel+1)
	for th := uint8(0); th <= c.maxLevel; th++ {
		pt := ConfidencePoint{Threshold: th}
		if c.total > 0 {
			pt.CoveragePct = 100 * float64(c.attempts[th]) / float64(c.total)
		}
		if c.attempts[th] > 0 {
			pt.AccuracyPct = 100 * float64(c.hits[th]) / float64(c.attempts[th])
		}
		points = append(points, pt)
	}
	return points
}

// ConfidenceSweep runs the sweep over an in-memory trace — the
// materializing façade over ConfidenceSim.
func ConfidenceSweep(t *trace.Trace, kind predictor.Kind, maxLevel uint8) []ConfidencePoint {
	sim := NewConfidenceSim(kind, maxLevel)
	for i := range t.Events {
		sim.Observe(&t.Events[i])
	}
	return sim.Points()
}
