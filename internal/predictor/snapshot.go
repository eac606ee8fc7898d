package predictor

import (
	"errors"
	"fmt"
	"slices"
)

// Checkpointing support for epoch-speculative model execution (see
// internal/dpg's speculative pass). A Snapshot is a deep, immutable copy of
// a predictor's complete state; Restore copies a snapshot back into a live
// instance of matching geometry. On top of the full snapshots, every
// checkpointable predictor can maintain an incremental state digest — a
// 64-bit fingerprint that is a pure function of the current state,
// maintained in O(1) per update — so two instances can be compared at epoch
// boundaries without materializing or scanning their (multi-megabyte)
// tables. The digest is an XOR of per-entry contributions, where an entry in
// its zeroed initial state contributes nothing: a freshly constructed (or
// Reset) predictor always digests to zero, and equal states digest equally
// regardless of the update path that reached them.
//
// The digest detects accidental state divergence (a speculative chain whose
// state drifted from the committed state); it is a fingerprint, not a
// cryptographic commitment.

// ErrSnapshot reports a Restore with a snapshot of the wrong predictor type
// or geometry. Match with errors.Is.
var ErrSnapshot = errors.New("predictor: incompatible snapshot")

// Snapshot is an opaque, immutable copy of one predictor's complete state,
// produced by Checkpointer.Snapshot. Snapshots may be shared freely between
// goroutines; Restore never mutates them.
type Snapshot interface {
	// Digest returns the state digest captured with the snapshot. It is
	// meaningful only if the source predictor was tracking digests (see
	// Checkpointer.TrackDigest) — otherwise it is zero.
	Digest() uint64
	// Equal reports whether the captured state (tables, geometry, history)
	// is identical to other's, comparing full contents, not digests.
	Equal(other Snapshot) bool
}

// Checkpointer is the optional interface of predictors whose state can be
// captured and restored. All built-in predictors (LastValue, Stride,
// Context, and the GShare branch predictor) implement it; custom predictors
// that do not are still usable everywhere, but cannot participate in
// speculative epoch execution.
type Checkpointer interface {
	// Snapshot returns a deep copy of the current state.
	Snapshot() Snapshot
	// Restore copies a snapshot produced by the same predictor type and
	// geometry back into the receiver, returning an error matching
	// ErrSnapshot otherwise. The digest is restored with the state.
	Restore(Snapshot) error
	// TrackDigest enables or disables incremental digest maintenance.
	// Enable it on a predictor in its initial state (freshly constructed or
	// Reset) or immediately after Restore; enabling it on other warm state
	// leaves the digest meaningless (it is never rebuilt by scanning).
	TrackDigest(on bool)
	// Digest returns the current state digest (valid while tracking).
	Digest() uint64
}

// digestMix folds one table entry — identified by tag, carrying up to two
// 64-bit lanes of packed state — into its digest contribution. Callers map
// an entry's zeroed state to a zero contribution before calling, so the
// whole-table digest of initial state is zero by construction.
func digestMix(tag, a, b uint64) uint64 {
	h := mix(tag + 0x9e3779b97f4a7c15)
	h = mix(h ^ a)
	return mix(h ^ b)
}

// --- LastValue ---

type lastSnap struct {
	mask    uint64
	geom    shardGeom
	entries []lastEntry
	dig     uint64
}

func (s *lastSnap) Digest() uint64 { return s.dig }

func (s *lastSnap) Equal(other Snapshot) bool {
	o, ok := other.(*lastSnap)
	return ok && s.mask == o.mask && s.geom == o.geom && slices.Equal(s.entries, o.entries)
}

func packLastEntry(e lastEntry) uint64 {
	if !e.valid {
		return 0
	}
	return uint64(e.value) | uint64(e.ctr)<<32 | 1<<40
}

func lastContrib(i, packed uint64) uint64 {
	if packed == 0 {
		return 0
	}
	return digestMix(i, packed, 0)
}

// Snapshot implements Checkpointer.
func (p *LastValue) Snapshot() Snapshot {
	return &lastSnap{mask: p.mask, geom: p.geom, entries: slices.Clone(p.entries), dig: p.dig}
}

// Restore implements Checkpointer.
func (p *LastValue) Restore(s Snapshot) error {
	ls, ok := s.(*lastSnap)
	if !ok {
		return fmt.Errorf("%w: %T into *LastValue", ErrSnapshot, s)
	}
	if ls.mask != p.mask || ls.geom != p.geom {
		return fmt.Errorf("%w: table size or shard geometry mismatch", ErrSnapshot)
	}
	copy(p.entries, ls.entries)
	p.dig = ls.dig
	return nil
}

// TrackDigest implements Checkpointer.
func (p *LastValue) TrackDigest(on bool) { p.track = on }

// Digest implements Checkpointer.
func (p *LastValue) Digest() uint64 { return p.dig }

// --- Stride ---

type strideSnap struct {
	mask    uint64
	geom    shardGeom
	entries []strideEntry
	dig     uint64
}

func (s *strideSnap) Digest() uint64 { return s.dig }

func (s *strideSnap) Equal(other Snapshot) bool {
	o, ok := other.(*strideSnap)
	return ok && s.mask == o.mask && s.geom == o.geom && slices.Equal(s.entries, o.entries)
}

func packStrideEntry(e strideEntry) (a, b uint64) {
	if !e.valid {
		return 0, 0
	}
	a = uint64(e.last) | uint64(e.stride)<<32
	b = uint64(e.observe) | 1<<33
	if e.primed {
		b |= 1 << 34
	}
	return a, b
}

func strideContrib(i, a, b uint64) uint64 {
	if a == 0 && b == 0 {
		return 0
	}
	return digestMix(i, a, b)
}

// Snapshot implements Checkpointer.
func (p *Stride) Snapshot() Snapshot {
	return &strideSnap{mask: p.mask, geom: p.geom, entries: slices.Clone(p.entries), dig: p.dig}
}

// Restore implements Checkpointer.
func (p *Stride) Restore(s Snapshot) error {
	ss, ok := s.(*strideSnap)
	if !ok {
		return fmt.Errorf("%w: %T into *Stride", ErrSnapshot, s)
	}
	if ss.mask != p.mask || ss.geom != p.geom {
		return fmt.Errorf("%w: table size or shard geometry mismatch", ErrSnapshot)
	}
	copy(p.entries, ss.entries)
	p.dig = ss.dig
	return nil
}

// TrackDigest implements Checkpointer.
func (p *Stride) TrackDigest(on bool) { p.track = on }

// Digest implements Checkpointer.
func (p *Stride) Digest() uint64 { return p.dig }

// --- Context ---

// l2Tag domain-separates second-level entries from first-level entries in
// the digest (both are indexed from zero).
const l2Tag = 1 << 40

type contextSnap struct {
	l1mask uint64
	l2mask uint64
	order  int
	l1     []l1Entry
	l2     []l2Entry
	dig    uint64
}

func (s *contextSnap) Digest() uint64 { return s.dig }

func (s *contextSnap) Equal(other Snapshot) bool {
	o, ok := other.(*contextSnap)
	return ok && s.l1mask == o.l1mask && s.l2mask == o.l2mask && s.order == o.order &&
		slices.Equal(s.l1, o.l1) && slices.Equal(s.l2, o.l2)
}

func packL1Entry(e *l1Entry) (a, b uint64) {
	a = uint64(e.hist[0]) | uint64(e.hist[1])<<16 | uint64(e.hist[2])<<32 | uint64(e.hist[3])<<48
	b = uint64(e.hist[4]) | uint64(e.hist[5])<<16 | uint64(e.hist[6])<<32 | uint64(e.hist[7])<<48
	return a, b
}

func l1Contrib(i uint64, e *l1Entry) uint64 {
	a, b := packL1Entry(e)
	if a == 0 && b == 0 {
		return 0
	}
	return digestMix(i, a, b)
}

func packL2Entry(e *l2Entry) uint64 {
	if !e.valid {
		return 0
	}
	return uint64(e.value) | uint64(e.ctr)<<32 | 1<<40
}

func l2Contrib(i, packed uint64) uint64 {
	if packed == 0 {
		return 0
	}
	return digestMix(i|l2Tag, packed, 0)
}

// Snapshot implements Checkpointer.
func (p *Context) Snapshot() Snapshot {
	return &contextSnap{
		l1mask: p.l1mask, l2mask: p.l2mask, order: p.order,
		l1: slices.Clone(p.l1), l2: slices.Clone(p.l2), dig: p.dig,
	}
}

// Restore implements Checkpointer.
func (p *Context) Restore(s Snapshot) error {
	cs, ok := s.(*contextSnap)
	if !ok {
		return fmt.Errorf("%w: %T into *Context", ErrSnapshot, s)
	}
	if cs.l1mask != p.l1mask || cs.l2mask != p.l2mask || cs.order != p.order {
		return fmt.Errorf("%w: table geometry mismatch", ErrSnapshot)
	}
	copy(p.l1, cs.l1)
	copy(p.l2, cs.l2)
	p.dig = cs.dig
	return nil
}

// TrackDigest implements Checkpointer.
func (p *Context) TrackDigest(on bool) { p.track = on }

// Digest implements Checkpointer.
func (p *Context) Digest() uint64 { return p.dig }

// --- GShare ---

// gshareHistTag is the digest tag of the global history register, which has
// no table index of its own.
const gshareHistTag = 1<<41 | 1

type gshareSnap struct {
	mask     uint32
	histBits uint
	history  uint32
	counters []uint8
	dig      uint64
}

func (s *gshareSnap) Digest() uint64 { return s.dig }

func (s *gshareSnap) Equal(other Snapshot) bool {
	o, ok := other.(*gshareSnap)
	return ok && s.mask == o.mask && s.histBits == o.histBits &&
		s.history == o.history && slices.Equal(s.counters, o.counters)
}

func gshareCtrContrib(i uint64, c uint8) uint64 {
	if c == 0 {
		return 0
	}
	return digestMix(i, uint64(c), 0)
}

func gshareHistContrib(h uint32) uint64 {
	if h == 0 {
		return 0
	}
	return digestMix(gshareHistTag, uint64(h), 0)
}

// Snapshot implements Checkpointer.
func (g *GShare) Snapshot() Snapshot {
	return &gshareSnap{
		mask: g.mask, histBits: g.histBits, history: g.history,
		counters: slices.Clone(g.counters), dig: g.dig,
	}
}

// Restore implements Checkpointer.
func (g *GShare) Restore(s Snapshot) error {
	gs, ok := s.(*gshareSnap)
	if !ok {
		return fmt.Errorf("%w: %T into *GShare", ErrSnapshot, s)
	}
	if gs.mask != g.mask || gs.histBits != g.histBits {
		return fmt.Errorf("%w: table size mismatch", ErrSnapshot)
	}
	g.history = gs.history
	copy(g.counters, gs.counters)
	g.dig = gs.dig
	return nil
}

// TrackDigest implements Checkpointer.
func (g *GShare) TrackDigest(on bool) { g.track = on }

// Digest implements Checkpointer.
func (g *GShare) Digest() uint64 { return g.dig }

// --- LDBP ---

type ldbpSnap struct {
	mask    uint64
	geom    shardGeom
	entries []ldbpEntry
	dig     uint64
}

func (s *ldbpSnap) Digest() uint64 { return s.dig }

func (s *ldbpSnap) Equal(other Snapshot) bool {
	o, ok := other.(*ldbpSnap)
	return ok && s.mask == o.mask && s.geom == o.geom && slices.Equal(s.entries, o.entries)
}

func packLDBPEntry(e ldbpEntry) (a, b uint64) {
	if !e.valid {
		return 0, 0
	}
	a = uint64(e.last) | uint64(e.d0)<<32
	b = uint64(e.d1) | uint64(e.c0)<<32 | uint64(e.c1)<<34 | 1<<36
	return a, b
}

func ldbpContrib(i, a, b uint64) uint64 {
	if a == 0 && b == 0 {
		return 0
	}
	return digestMix(i, a, b)
}

// Snapshot implements Checkpointer.
func (p *LDBP) Snapshot() Snapshot {
	return &ldbpSnap{mask: p.mask, geom: p.geom, entries: slices.Clone(p.entries), dig: p.dig}
}

// Restore implements Checkpointer.
func (p *LDBP) Restore(s Snapshot) error {
	ls, ok := s.(*ldbpSnap)
	if !ok {
		return fmt.Errorf("%w: %T into *LDBP", ErrSnapshot, s)
	}
	if ls.mask != p.mask || ls.geom != p.geom {
		return fmt.Errorf("%w: table size or shard geometry mismatch", ErrSnapshot)
	}
	copy(p.entries, ls.entries)
	p.dig = ls.dig
	return nil
}

// TrackDigest implements Checkpointer.
func (p *LDBP) TrackDigest(on bool) { p.track = on }

// Digest implements Checkpointer.
func (p *LDBP) Digest() uint64 { return p.dig }

// --- TAGE ---

type tageSnap struct {
	baseMask uint64
	compMask uint64
	base     []tageBase
	comps    [][]tageEntry
	hist     []uint16
	pos      int
	dig      uint64
}

func (s *tageSnap) Digest() uint64 { return s.dig }

func (s *tageSnap) Equal(other Snapshot) bool {
	o, ok := other.(*tageSnap)
	if !ok || s.baseMask != o.baseMask || s.compMask != o.compMask ||
		s.pos != o.pos || !slices.Equal(s.base, o.base) || !slices.Equal(s.hist, o.hist) {
		return false
	}
	if len(s.comps) != len(o.comps) {
		return false
	}
	for c := range s.comps {
		if !slices.Equal(s.comps[c], o.comps[c]) {
			return false
		}
	}
	return true
}

func packTageBase(e tageBase) uint64 {
	if !e.valid {
		return 0
	}
	return uint64(e.value) | uint64(e.ctr)<<32 | 1<<40
}

func tageBaseContrib(i, packed uint64) uint64 {
	if packed == 0 {
		return 0
	}
	return digestMix(i, packed, 0)
}

func packTageEntry(e tageEntry) (a, b uint64) {
	if !e.valid {
		return 0, 0
	}
	a = uint64(e.value) | uint64(e.tag)<<32
	b = uint64(e.ctr) | uint64(e.u)<<2 | 1<<4
	return a, b
}

// tageCompTag is the digest tag of tagged-component c entry i, disjoint from
// the base table's raw-index tag space.
func tageCompTag(c int, i uint64) uint64 {
	return uint64(c+1)<<32 | i
}

func tageContrib(tag, a, b uint64) uint64 {
	if a == 0 && b == 0 {
		return 0
	}
	return digestMix(tag, a, b)
}

func tageHistContrib(slot int, v uint16) uint64 {
	if v == 0 {
		return 0
	}
	return digestMix(tageHistTag|uint64(slot), uint64(v), 0)
}

func tagePosContrib(pos int) uint64 {
	if pos == 0 {
		return 0
	}
	return digestMix(tagePosTag, uint64(pos), 0)
}

// Snapshot implements Checkpointer.
func (p *TAGE) Snapshot() Snapshot {
	comps := make([][]tageEntry, len(p.comps))
	for c := range p.comps {
		comps[c] = slices.Clone(p.comps[c])
	}
	return &tageSnap{
		baseMask: p.baseMask, compMask: p.compMask,
		base: slices.Clone(p.base), comps: comps,
		hist: slices.Clone(p.hist), pos: p.pos, dig: p.dig,
	}
}

// Restore implements Checkpointer.
func (p *TAGE) Restore(s Snapshot) error {
	ts, ok := s.(*tageSnap)
	if !ok {
		return fmt.Errorf("%w: %T into *TAGE", ErrSnapshot, s)
	}
	if ts.baseMask != p.baseMask || ts.compMask != p.compMask {
		return fmt.Errorf("%w: table geometry mismatch", ErrSnapshot)
	}
	copy(p.base, ts.base)
	for c := range p.comps {
		copy(p.comps[c], ts.comps[c])
	}
	copy(p.hist, ts.hist)
	p.pos = ts.pos
	p.dig = ts.dig
	p.memoOK = false
	p.refold()
	return nil
}

// TrackDigest implements Checkpointer.
func (p *TAGE) TrackDigest(on bool) { p.track = on }

// Digest implements Checkpointer.
func (p *TAGE) Digest() uint64 { return p.dig }
