package predictor

// Confidence wraps a value predictor with a per-entry saturating confidence
// counter (Jacobsen, Rotenberg & Smith, cited by the paper in §1.2 as
// "probably essential for effective value prediction and speculation").
// The counter rises on correct predictions and resets on mispredictions;
// consumers gate speculation on a threshold. The wrapper is observational:
// Predict still returns the inner prediction, and ConfidenceOf exposes the
// current counter so an experiment can sweep thresholds.
type Confidence struct {
	inner Predictor
	mask  uint64
	ctr   []uint8
	max   uint8
}

// NewConfidence wraps inner with 2^bits confidence counters saturating at
// maxLevel.
func NewConfidence(inner Predictor, bits int, maxLevel uint8) *Confidence {
	if bits <= 0 || bits > 30 {
		panic("predictor: confidence bits out of range")
	}
	if maxLevel == 0 {
		panic("predictor: confidence level must be positive")
	}
	return &Confidence{
		inner: inner,
		mask:  1<<uint(bits) - 1,
		ctr:   make([]uint8, 1<<uint(bits)),
		max:   maxLevel,
	}
}

func (c *Confidence) slot(key uint64) *uint8 {
	return &c.ctr[mix(key)&c.mask]
}

// Name implements Predictor.
func (c *Confidence) Name() string { return c.inner.Name() + "+conf" }

// Predict implements Predictor.
func (c *Confidence) Predict(key uint64) (uint32, bool) {
	return c.inner.Predict(key)
}

// ConfidenceOf returns the current confidence level for key (0..maxLevel).
func (c *Confidence) ConfidenceOf(key uint64) uint8 { return *c.slot(key) }

// Verdict resolves one prediction for key against actual in a single
// inner lookup: it returns the confidence level and the inner prediction
// as they stood before actual was seen, then trains the counter (rise on a
// hit, reset on a miss) and updates the inner predictor.
func (c *Confidence) Verdict(key uint64, actual uint32) (conf uint8, pred uint32, ok bool) {
	s := c.slot(key)
	conf = *s
	pred, ok = c.inner.Predict(key)
	if ok && pred == actual {
		if *s < c.max {
			*s++
		}
	} else {
		*s = 0 // misprediction resets confidence (strict gating)
	}
	c.inner.Update(key, actual)
	return conf, pred, ok
}

// Update implements Predictor: Verdict with the verdict discarded.
func (c *Confidence) Update(key uint64, actual uint32) { c.Verdict(key, actual) }

// Reset implements Predictor.
func (c *Confidence) Reset() {
	c.inner.Reset()
	for i := range c.ctr {
		c.ctr[i] = 0
	}
}
