package predictor

// TAGE is a tagged geometric-history value predictor in the style of
// VTAGE (Perais & Seznec, HPCA '14), itself the value-prediction port of
// the TAGE branch predictor (Seznec & Michaud): a direct-mapped base
// component with last-value semantics, backed by tageComps tagged
// components indexed by the key hashed together with geometrically
// increasing lengths of a global value history. The longest-history
// component whose tag matches provides the prediction; mispredictions
// allocate into a longer component whose usefulness counter has decayed,
// so short recurring contexts are captured cheaply while long irregular
// ones (a BFS frontier, a rank sweep) climb to the long-history tables.
//
// Like the paper's context predictor, TAGE reads and writes a global
// history shared by every key. It is fully checkpointable, with the same O(1) XOR-composed digest scheme as the
// other predictors (the history ring contributes per slot, the ring
// cursor as its own tagged term).
type TAGE struct {
	baseMask uint64
	compMask uint64
	base     []tageBase
	comps    [][]tageEntry
	// hist[:tageMaxHist] is the ring of hashed recent values, and
	// hist[tageMaxHist:] mirrors it, so the tageMaxHist most recent
	// values lie contiguous, oldest first, in hist[pos:pos+tageMaxHist].
	hist [2 * tageMaxHist]uint16
	pos  int // next ring slot to write
	// folds[c] is the folded history of component c (see refold),
	// recomputed whenever the history changes.
	folds [tageComps]uint64
	// memo is the provider lookup of the latest Predict, reused by an
	// Update of the same key that follows it. memoOK is cleared by every
	// mutation; neither is part of the predictor's state (snapshots and
	// digests ignore them).
	memo   tageLookup
	memoOK bool
	track  bool
	dig    uint64
}

// tageLookup is one key's provider lookup under the current history and
// tables.
type tageLookup struct {
	key  uint64
	mk   uint64 // mix(key)
	prov int    // longest-history matching component, -1 for none
	idxs [tageComps]uint64
	tags [tageComps]uint16
}

// tageComps is the number of tagged components; tageHistLens are their
// geometric history lengths (in observed values).
const tageComps = 4

var tageHistLens = [tageComps]int{4, 8, 16, tageMaxHist}

// tageMaxHist is the longest history length, the size of the ring.
const tageMaxHist = 32

// tageSalts domain-separate the component index/tag hashes.
var tageSalts = [tageComps]uint64{
	0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f, 0x165667b19e3779f9, 0x27d4eb2f165667c5,
}

// Digest tag spaces. Base entries use their raw index (< 2^30); component
// c entry i uses (c+1)<<32 | i; history slot s and the ring cursor live
// above both.
const (
	tageHistTag = 1 << 42
	tagePosTag  = 1 << 43
)

type tageBase struct {
	value uint32
	ctr   uint8 // 0..3 saturating replacement hysteresis
	valid bool
}

type tageEntry struct {
	tag   uint16
	value uint32
	ctr   uint8 // 0..3 prediction confidence
	u     uint8 // 0..3 usefulness (guards against allocation churn)
	valid bool
}

// NewTAGE returns a TAGE value predictor with a 2^bits base table and
// tageComps tagged components of 2^(bits-2) entries each.
func NewTAGE(bits int) *TAGE {
	if bits <= 2 || bits > 30 {
		panic("predictor: table bits out of range")
	}
	p := &TAGE{
		baseMask: 1<<uint(bits) - 1,
		compMask: 1<<uint(bits-2) - 1,
		base:     make([]tageBase, 1<<uint(bits)),
		comps:    make([][]tageEntry, tageComps),
	}
	for i := range p.comps {
		p.comps[i] = make([]tageEntry, 1<<uint(bits-2))
	}
	p.refold()
	return p
}

// Name implements Predictor.
func (p *TAGE) Name() string { return "tage" }

// refold recomputes every component's folded history: FNV over the ring,
// newest first, where component c folds the tageHistLens[c] most recent
// values. The folds are prefixes of one chain, so a single pass over the
// longest history yields all of them. The mirrored window holds that
// history in one contiguous run, so the chain walks it straight down with
// no wrap.
func (p *TAGE) refold() {
	w := (*[tageMaxHist]uint16)(p.hist[p.pos : p.pos+tageMaxHist])
	h := uint64(1469598103934665603)
	end := tageMaxHist
	for c, n := range tageHistLens {
		h = fnvFoldDown(h, w[tageMaxHist-n:end])
		p.folds[c] = h
		end = tageMaxHist - n
	}
}

// fnvFoldDown continues the FNV-1a chain h over vs from its last element
// to its first.
func fnvFoldDown(h uint64, vs []uint16) uint64 {
	for i := len(vs) - 1; i >= 0; i-- {
		h ^= uint64(vs[i])
		h *= 1099511628211
	}
	return h
}

// lookup returns key's provider lookup: every component's table index and
// tag, and the longest-history component whose tag matches. The result is
// memoised until the next mutation.
func (p *TAGE) lookup(key uint64) *tageLookup {
	l := &p.memo
	if p.memoOK && l.key == key {
		return l
	}
	l.key, l.mk, l.prov = key, mix(key), -1
	for c := 0; c < tageComps; c++ {
		x := mix(l.mk ^ p.folds[c] ^ tageSalts[c])
		l.idxs[c], l.tags[c] = x&p.compMask, uint16(x>>32)
	}
	for c := tageComps - 1; c >= 0; c-- {
		e := &p.comps[c][l.idxs[c]]
		if e.valid && e.tag == l.tags[c] {
			l.prov = c
			break
		}
	}
	p.memoOK = true
	return l
}

// Predict implements Predictor. A tagged match predicts when its
// confidence counter is non-zero; otherwise the base component answers
// with last-value semantics.
func (p *TAGE) Predict(key uint64) (uint32, bool) {
	l := p.lookup(key)
	if l.prov >= 0 {
		e := &p.comps[l.prov][l.idxs[l.prov]]
		return e.value, e.ctr > 0
	}
	b := &p.base[l.mk&p.baseMask]
	if !b.valid {
		return 0, false
	}
	return b.value, true
}

// Update implements Predictor: train the provider (and always the base),
// allocate into a longer component on a misprediction, then shift the
// observed value into the global history.
func (p *TAGE) Update(key uint64, actual uint32) {
	l := p.lookup(key)
	prov, idxs, tags := l.prov, l.idxs, l.tags
	bi := l.mk & p.baseMask
	p.memoOK = false
	b := &p.base[bi]

	correct := false
	if prov >= 0 {
		correct = p.comps[prov][idxs[prov]].value == actual
	} else {
		correct = b.valid && b.value == actual
	}

	if prov >= 0 {
		e := &p.comps[prov][idxs[prov]]
		var oa, ob uint64
		if p.track {
			oa, ob = packTageEntry(*e)
		}
		if e.value == actual {
			if e.ctr < 3 {
				e.ctr++
			}
			if e.u < 3 {
				e.u++
			}
		} else {
			if e.u > 0 {
				e.u--
			}
			if e.ctr > 0 {
				e.ctr--
			} else {
				e.value = actual
				e.ctr = 1
			}
		}
		if p.track {
			na, nb := packTageEntry(*e)
			t := tageCompTag(prov, idxs[prov])
			p.dig ^= tageContrib(t, oa, ob) ^ tageContrib(t, na, nb)
		}
	}

	// The base component always trains: it is the fallback every tag miss
	// lands on, with the same 2-bit replacement hysteresis as LastValue.
	var oldBase uint64
	if p.track {
		oldBase = packTageBase(*b)
	}
	switch {
	case !b.valid:
		b.value = actual
		b.ctr = 1
		b.valid = true
	case b.value == actual:
		if b.ctr < 3 {
			b.ctr++
		}
	case b.ctr > 0:
		b.ctr--
	default:
		b.value = actual
		b.ctr = 1
	}
	if p.track {
		p.dig ^= tageBaseContrib(bi, oldBase) ^ tageBaseContrib(bi, packTageBase(*b))
	}

	if !correct {
		p.allocate(prov+1, idxs, tags, actual)
	}
	p.pushHist(hashValue(actual))
}

// allocate claims an entry in the first component >= from whose usefulness
// has decayed to zero; if every candidate is still useful, their counters
// all decay instead (the TAGE anti-churn rule).
func (p *TAGE) allocate(from int, idxs [tageComps]uint64, tags [tageComps]uint16, actual uint32) {
	for c := from; c < tageComps; c++ {
		e := &p.comps[c][idxs[c]]
		if !e.valid || e.u == 0 {
			var oa, ob uint64
			if p.track {
				oa, ob = packTageEntry(*e)
			}
			*e = tageEntry{tag: tags[c], value: actual, ctr: 1, valid: true}
			if p.track {
				na, nb := packTageEntry(*e)
				t := tageCompTag(c, idxs[c])
				p.dig ^= tageContrib(t, oa, ob) ^ tageContrib(t, na, nb)
			}
			return
		}
	}
	for c := from; c < tageComps; c++ {
		e := &p.comps[c][idxs[c]]
		var oa, ob uint64
		if p.track {
			oa, ob = packTageEntry(*e)
		}
		e.u--
		if p.track {
			na, nb := packTageEntry(*e)
			t := tageCompTag(c, idxs[c])
			p.dig ^= tageContrib(t, oa, ob) ^ tageContrib(t, na, nb)
		}
	}
}

// pushHist shifts one hashed value into the global history ring.
func (p *TAGE) pushHist(hv uint16) {
	s := p.pos
	if p.track {
		p.dig ^= tageHistContrib(s, p.hist[s]) ^ tagePosContrib(p.pos)
	}
	p.hist[s] = hv
	p.hist[s+tageMaxHist] = hv
	p.pos++
	if p.pos == tageMaxHist {
		p.pos = 0
	}
	if p.track {
		p.dig ^= tageHistContrib(s, p.hist[s]) ^ tagePosContrib(p.pos)
	}
	p.refold()
}

// Reset implements Predictor.
func (p *TAGE) Reset() {
	for i := range p.base {
		p.base[i] = tageBase{}
	}
	for _, comp := range p.comps {
		for i := range comp {
			comp[i] = tageEntry{}
		}
	}
	p.hist = [2 * tageMaxHist]uint16{}
	p.pos = 0
	p.dig = 0
	p.memoOK = false
	p.refold()
}
