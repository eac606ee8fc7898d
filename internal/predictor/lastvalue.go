package predictor

// LastValue is the paper's last-value predictor: a direct-mapped table of
// previous values with a 2-bit saturating counter providing replacement
// hysteresis. It is based on the predictor of Lipasti, Wilkerson & Shen
// (ASPLOS '96) as configured in the paper: 2^16 entries.
//
// The counter semantics implement "the prediction value is replaced when the
// counter indicates two bad predictions in a row": a correct prediction
// saturates the counter upward; an incorrect prediction decrements it, and
// the stored value is replaced only when the counter has fallen to zero.
// While an entry exists its value is always offered as the prediction.
type LastValue struct {
	mask    uint64
	entries []lastEntry
	track   bool
	dig     uint64
}

type lastEntry struct {
	value uint32
	ctr   uint8 // 0..3 saturating
	valid bool
}

// NewLastValue returns a last-value predictor with 2^bits entries.
func NewLastValue(bits int) *LastValue {
	if bits <= 0 || bits > 30 {
		panic("predictor: table bits out of range")
	}
	return &LastValue{
		mask:    1<<uint(bits) - 1,
		entries: make([]lastEntry, 1<<uint(bits)),
	}
}

// Name implements Predictor.
func (p *LastValue) Name() string { return "last-value" }

// Predict implements Predictor.
func (p *LastValue) Predict(key uint64) (uint32, bool) {
	e := &p.entries[mix(key)&p.mask]
	if !e.valid {
		return 0, false
	}
	return e.value, true
}

// Update implements Predictor.
func (p *LastValue) Update(key uint64, actual uint32) {
	i := mix(key) & p.mask
	e := &p.entries[i]
	var old uint64
	if p.track {
		old = packLastEntry(*e)
	}
	switch {
	case !e.valid:
		e.value = actual
		e.ctr = 1
		e.valid = true
	case e.value == actual:
		if e.ctr < 3 {
			e.ctr++
		}
	case e.ctr > 0:
		e.ctr--
	default:
		e.value = actual
		e.ctr = 1
	}
	if p.track {
		p.dig ^= lastContrib(i, old) ^ lastContrib(i, packLastEntry(*e))
	}
}

// Reset implements Predictor.
func (p *LastValue) Reset() {
	for i := range p.entries {
		p.entries[i] = lastEntry{}
	}
	p.dig = 0
}

// mix is a 64-bit finaliser (splitmix64) that spreads PC-derived keys over
// the table, standing in for the bit-selection indexing of a hardware table.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
