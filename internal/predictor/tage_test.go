package predictor

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// naiveTAGE is the reference TAGE: every lookup folds the history afresh
// (foldHist per component) and Update repeats Predict's provider lookup.
// TAGE caches the folds once per history update and memoises the lookup
// between Predict and Update; TestTAGECachedMatchesNaive holds the two to
// identical predictions and digests.
type naiveTAGE struct {
	baseMask uint64
	compMask uint64
	base     []tageBase
	comps    [][]tageEntry
	hist     []uint16
	pos      int
	dig      uint64
}

func newNaiveTAGE(bits int) *naiveTAGE {
	p := &naiveTAGE{
		baseMask: 1<<uint(bits) - 1,
		compMask: 1<<uint(bits-2) - 1,
		base:     make([]tageBase, 1<<uint(bits)),
		comps:    make([][]tageEntry, tageComps),
		hist:     make([]uint16, tageHistLens[tageComps-1]),
	}
	for i := range p.comps {
		p.comps[i] = make([]tageEntry, 1<<uint(bits-2))
	}
	return p
}

func (p *naiveTAGE) foldHist(n int) uint64 {
	h := uint64(1469598103934665603)
	i := p.pos
	for k := 0; k < n; k++ {
		i--
		if i < 0 {
			i = len(p.hist) - 1
		}
		h ^= uint64(p.hist[i])
		h *= 1099511628211
	}
	return h
}

func (p *naiveTAGE) provider(key uint64, idxs *[tageComps]uint64, tags *[tageComps]uint16) int {
	for c := 0; c < tageComps; c++ {
		x := mix(mix(key) ^ p.foldHist(tageHistLens[c]) ^ tageSalts[c])
		idxs[c], tags[c] = x&p.compMask, uint16(x>>32)
	}
	for c := tageComps - 1; c >= 0; c-- {
		e := &p.comps[c][idxs[c]]
		if e.valid && e.tag == tags[c] {
			return c
		}
	}
	return -1
}

func (p *naiveTAGE) Predict(key uint64) (uint32, bool) {
	var idxs [tageComps]uint64
	var tags [tageComps]uint16
	if c := p.provider(key, &idxs, &tags); c >= 0 {
		e := &p.comps[c][idxs[c]]
		return e.value, e.ctr > 0
	}
	b := &p.base[mix(key)&p.baseMask]
	if !b.valid {
		return 0, false
	}
	return b.value, true
}

// setEntry replaces component c entry i, keeping the digest current.
func (p *naiveTAGE) setEntry(c int, i uint64, e tageEntry) {
	oa, ob := packTageEntry(p.comps[c][i])
	na, nb := packTageEntry(e)
	t := tageCompTag(c, i)
	p.dig ^= tageContrib(t, oa, ob) ^ tageContrib(t, na, nb)
	p.comps[c][i] = e
}

func (p *naiveTAGE) Update(key uint64, actual uint32) {
	var idxs [tageComps]uint64
	var tags [tageComps]uint16
	prov := p.provider(key, &idxs, &tags)
	bi := mix(key) & p.baseMask
	b := p.base[bi]

	correct := false
	if prov >= 0 {
		correct = p.comps[prov][idxs[prov]].value == actual
	} else {
		correct = b.valid && b.value == actual
	}
	if prov >= 0 {
		e := p.comps[prov][idxs[prov]]
		if e.value == actual {
			e.ctr = min(e.ctr+1, 3)
			e.u = min(e.u+1, 3)
		} else {
			if e.u > 0 {
				e.u--
			}
			if e.ctr > 0 {
				e.ctr--
			} else {
				e.value, e.ctr = actual, 1
			}
		}
		p.setEntry(prov, idxs[prov], e)
	}

	old := packTageBase(b)
	switch {
	case !b.valid:
		b = tageBase{value: actual, ctr: 1, valid: true}
	case b.value == actual:
		b.ctr = min(b.ctr+1, 3)
	case b.ctr > 0:
		b.ctr--
	default:
		b.value, b.ctr = actual, 1
	}
	p.base[bi] = b
	p.dig ^= tageBaseContrib(bi, old) ^ tageBaseContrib(bi, packTageBase(b))

	if !correct {
		p.allocate(prov+1, idxs, tags, actual)
	}

	s := p.pos
	p.dig ^= tageHistContrib(s, p.hist[s]) ^ tagePosContrib(p.pos)
	p.hist[s] = hashValue(actual)
	p.pos = (p.pos + 1) % len(p.hist)
	p.dig ^= tageHistContrib(s, p.hist[s]) ^ tagePosContrib(p.pos)
}

func (p *naiveTAGE) allocate(from int, idxs [tageComps]uint64, tags [tageComps]uint16, actual uint32) {
	for c := from; c < tageComps; c++ {
		if e := p.comps[c][idxs[c]]; !e.valid || e.u == 0 {
			p.setEntry(c, idxs[c], tageEntry{tag: tags[c], value: actual, ctr: 1, valid: true})
			return
		}
	}
	for c := from; c < tageComps; c++ {
		e := p.comps[c][idxs[c]]
		e.u--
		p.setEntry(c, idxs[c], e)
	}
}

func (p *naiveTAGE) clone() *naiveTAGE {
	q := *p
	q.base = slices.Clone(p.base)
	q.hist = slices.Clone(p.hist)
	q.comps = make([][]tageEntry, len(p.comps))
	for c := range p.comps {
		q.comps[c] = slices.Clone(p.comps[c])
	}
	return &q
}

// TestTAGECachedMatchesNaive drives the cached TAGE and the naive
// reference with random key/value streams — Predict then Update of a key,
// Predicts of other keys interleaved before the Update, bare Updates,
// Snapshot/Restore and Reset — and compares every prediction and the
// digest after every step. Small tables and few keys force tag matches,
// allocations and usefulness decay.
func TestTAGECachedMatchesNaive(t *testing.T) {
	for _, bits := range []int{4, 8} {
		for seed := int64(1); seed <= 8; seed++ {
			r := rand.New(rand.NewSource(seed))
			got := NewTAGE(bits)
			got.TrackDigest(true)
			want := newNaiveTAGE(bits)
			type checkpoint struct {
				snap  Snapshot
				naive *naiveTAGE
			}
			var saved []checkpoint
			predict := func(step int, key uint64) {
				gv, gok := got.Predict(key)
				wv, wok := want.Predict(key)
				if gv != wv || gok != wok {
					t.Fatalf("bits %d seed %d step %d: Predict(%d) = %d,%v, naive %d,%v",
						bits, seed, step, key, gv, gok, wv, wok)
				}
			}
			key := func() uint64 { return uint64(r.Intn(48)) }
			for step := 0; step < 20000; step++ {
				k := key()
				switch op := r.Intn(100); {
				case op < 60:
					predict(step, k)
				case op < 85:
					predict(step, k)
					for n := r.Intn(3); n > 0; n-- {
						predict(step, key())
					}
				case op < 92:
					// bare Update, no Predict before it
				case op < 96:
					saved = append(saved, checkpoint{got.Snapshot(), want.clone()})
					continue
				case op < 99:
					if len(saved) == 0 {
						continue
					}
					c := saved[r.Intn(len(saved))]
					if err := got.Restore(c.snap); err != nil {
						t.Fatal(err)
					}
					want = c.naive.clone()
					predict(step, k)
					continue
				default:
					got.Reset()
					want = newNaiveTAGE(bits)
					predict(step, k)
					continue
				}
				v := uint32(r.Intn(6))
				if r.Intn(4) == 0 {
					v = r.Uint32()
				}
				got.Update(k, v)
				want.Update(k, v)
				if got.Digest() != want.dig {
					t.Fatalf("bits %d seed %d step %d: digest %#x, naive %#x",
						bits, seed, step, got.Digest(), want.dig)
				}
			}
		}
	}
}

// TestTAGEFoldMatchesNaive holds the folds refold computes over the
// mirrored window to the naive ring walk: after every push across several
// ring wraps, after Restore of a snapshot taken mid-ring, and after
// Reset.
func TestTAGEFoldMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	got := NewTAGE(6)
	want := newNaiveTAGE(6)
	check := func(what string) {
		t.Helper()
		for c, n := range tageHistLens {
			if f := want.foldHist(n); got.folds[c] != f {
				t.Fatalf("%s: folds[%d] = %#x, naive %#x (pos %d)", what, c, got.folds[c], f, got.pos)
			}
		}
	}
	push := func(step int) {
		k, v := uint64(r.Intn(16)), r.Uint32()
		got.Update(k, v)
		want.Update(k, v)
		check(fmt.Sprintf("push %d", step))
	}
	check("new")
	var snap Snapshot
	var naive *naiveTAGE
	for step := 0; step < 5*tageMaxHist; step++ {
		if step == 2*tageMaxHist+tageMaxHist/3 {
			snap, naive = got.Snapshot(), want.clone()
		}
		push(step)
	}
	if err := got.Restore(snap); err != nil {
		t.Fatal(err)
	}
	want = naive
	check("restore")
	for step := 0; step < 2*tageMaxHist; step++ {
		push(step)
	}
	got.Reset()
	want = newNaiveTAGE(6)
	check("reset")
	for step := 0; step < tageMaxHist+5; step++ {
		push(step)
	}
}
