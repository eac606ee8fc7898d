package dpg

// Influence tracking for the path analysis of §4.5. Every predicted value
// carries the set of generator instances its predictability traces back to,
// together with the longest propagation distance from each. Sets are exact
// up to a cap; on overflow the entries with the largest distances (the
// "earliest" generators, the ones Fig. 11's distance metric needs) are kept
// and the set is flagged, so downstream statistics can exclude inexact
// counts where exactness matters. Sets are written in place into storage
// their owner keeps (a value record or one of the model pass's buffers),
// so tracking allocates nothing once the buffers have grown.

// inflItem is one (generator, longest-distance) pair. dist counts
// propagating nodes and arcs on the longest path from the generator to the
// value's producing element.
type inflItem struct {
	gen  uint32
	dist uint32
}

// inflSet is a small-capacity influence set. The zero value is empty.
type inflSet struct {
	items []inflItem
	over  bool // true when entries were dropped due to the cap
}

// setSingle makes s the set holding one generator at distance 0, reusing
// s's storage.
func (s *inflSet) setSingle(gen uint32) {
	s.items = append(s.items[:0], inflItem{gen: gen, dist: 0})
	s.over = false
}

// clear empties s, keeping its storage.
func (s *inflSet) clear() {
	s.items = s.items[:0]
	s.over = false
}

// setBumped makes s a copy of src with every distance incremented by one —
// the value has flowed through one more propagating element. s's storage
// is reused and src is left untouched; the two must not share storage.
func (s *inflSet) setBumped(src inflSet) {
	s.items = s.items[:0]
	for _, it := range src.items {
		s.items = append(s.items, inflItem{gen: it.gen, dist: it.dist + 1})
	}
	s.over = src.over
}

// setUnion makes s the union of the contributions of several predicted
// inputs, reusing s's storage; no set in sets may share it. Distances for
// the same generator take the maximum (longest path). The result is capped
// at capN items; when trimming, the largest distances win so the
// earliest-generator distance stays exact.
func (s *inflSet) setUnion(sets []inflSet, capN int) {
	s.items = s.items[:0]
	s.over = false
	for _, src := range sets {
		if src.over {
			s.over = true
		}
		for _, it := range src.items {
			s.add(it)
		}
	}
	s.trim(capN)
}

// add unions one item into the set (max distance wins for duplicates).
func (s *inflSet) add(it inflItem) {
	for i := range s.items {
		if s.items[i].gen == it.gen {
			if it.dist > s.items[i].dist {
				s.items[i].dist = it.dist
			}
			return
		}
	}
	s.items = append(s.items, it)
}

// trim enforces the cap, dropping the smallest distances first.
func (s *inflSet) trim(capN int) {
	if len(s.items) <= capN {
		return
	}
	// Selection by repeated max keeps this allocation-free; sets are tiny.
	for len(s.items) > capN {
		minIdx := 0
		for i := 1; i < len(s.items); i++ {
			if s.items[i].dist < s.items[minIdx].dist {
				minIdx = i
			}
		}
		s.items[minIdx] = s.items[len(s.items)-1]
		s.items = s.items[:len(s.items)-1]
	}
	s.over = true
}

// maxDist returns the largest distance in the set (0 for empty sets).
func (s inflSet) maxDist() uint32 {
	var m uint32
	for _, it := range s.items {
		if it.dist > m {
			m = it.dist
		}
	}
	return m
}
