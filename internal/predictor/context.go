package predictor

// Context is the paper's two-level context-based (finite-context-method)
// value predictor (Sazeides & Smith, MICRO '97 / TR ECE-97-8):
//
//   - The first-level value history table (2^16 entries, indexed by a
//     truncated/hashed key) holds the last `order` values produced for that
//     entry, in hashed form.
//   - The hashed history forms the context used to index the shared
//     second-level value prediction table (2^20 entries), each entry holding
//     a predicted next value and a 3-bit saturating counter that guides
//     replacement.
//
// The second level is shared between all keys — and, in the model, between
// the input-side and output-side instances only if the caller passes the
// same instance, which the model never does. Sharing within one instance
// reproduces the paper's constructive/destructive interference effects.
type Context struct {
	l1mask uint64
	l2mask uint64
	order  int
	l1     []uint16 // order hashed values per first-level entry, most recent first
	l2     []l2Entry
	track  bool
	dig    uint64
}

// maxOrder bounds the history length to what the snapshot digest packs
// (two 64-bit words of 16-bit hashed values).
const maxOrder = 8

type l2Entry struct {
	value uint32
	ctr   uint8 // 0..7 saturating; 0 = empty/replaceable
	valid bool
}

// NewContext returns a context-based predictor with 2^l1bits first-level
// entries, 2^l2bits shared second-level entries, and the given history
// order.
func NewContext(l1bits, l2bits, order int) *Context {
	if l1bits <= 0 || l1bits > 30 || l2bits <= 0 || l2bits > 30 {
		panic("predictor: table bits out of range")
	}
	if order <= 0 || order > maxOrder {
		panic("predictor: context order out of range")
	}
	return &Context{
		l1mask: 1<<uint(l1bits) - 1,
		l2mask: 1<<uint(l2bits) - 1,
		order:  order,
		l1:     make([]uint16, order<<uint(l1bits)),
		l2:     make([]l2Entry, 1<<uint(l2bits)),
	}
}

// Name implements Predictor.
func (p *Context) Name() string { return "context" }

// hashValue folds a 32-bit value into the 16-bit form stored in the first
// level, as the paper's implementation does to bound table width.
func hashValue(v uint32) uint16 { return uint16(v ^ v>>16) }

// l1row returns first-level entry i: its hashed history, most recent
// value first.
func (p *Context) l1row(i uint64) []uint16 {
	n := uint64(p.order)
	return p.l1[i*n : i*n+n : i*n+n]
}

// l2index folds the hashed history (and nothing else — the second level is
// shared across static instructions) into a second-level index.
func (p *Context) l2index(hist []uint16) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range hist {
		h ^= uint64(v)
		h *= 0x100000001b3
	}
	return mix(h) & p.l2mask
}

// Predict implements Predictor.
func (p *Context) Predict(key uint64) (uint32, bool) {
	l1 := p.l1row(mix(key) & p.l1mask)
	l2 := &p.l2[p.l2index(l1)]
	if !l2.valid {
		return 0, false
	}
	return l2.value, true
}

// Update implements Predictor.
func (p *Context) Update(key uint64, actual uint32) {
	i1 := mix(key) & p.l1mask
	l1 := p.l1row(i1)
	i2 := p.l2index(l1)
	l2 := &p.l2[i2]
	var old1, old2 uint64
	if p.track {
		old1 = l1Contrib(i1, l1)
		old2 = l2Contrib(i2, packL2Entry(l2))
	}
	switch {
	case !l2.valid:
		l2.value = actual
		l2.ctr = 1
		l2.valid = true
	case l2.value == actual:
		if l2.ctr < 7 {
			l2.ctr++
		}
	case l2.ctr > 1:
		l2.ctr--
	default:
		l2.value = actual
		l2.ctr = 1
	}
	// Shift the new value into the history.
	copy(l1[1:], l1)
	l1[0] = hashValue(actual)
	if p.track {
		p.dig ^= old1 ^ l1Contrib(i1, l1) ^ old2 ^ l2Contrib(i2, packL2Entry(l2))
	}
}

// Reset implements Predictor.
func (p *Context) Reset() {
	clear(p.l1)
	clear(p.l2)
	p.dig = 0
}
