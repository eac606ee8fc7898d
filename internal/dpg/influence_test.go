package dpg

import "testing"

func items(s inflSet) map[uint32]uint32 {
	m := map[uint32]uint32{}
	for _, it := range s.items {
		m[it.gen] = it.dist
	}
	return m
}

// union returns a fresh set holding the union of sets, capped at capN.
func union(sets []inflSet, capN int) inflSet {
	var s inflSet
	s.setUnion(sets, capN)
	return s
}

func TestSingleInfl(t *testing.T) {
	s := inflSet{items: []inflItem{{gen: 1, dist: 4}, {gen: 2, dist: 9}}, over: true}
	s.setSingle(7)
	if len(s.items) != 1 || s.items[0].gen != 7 || s.items[0].dist != 0 || s.over {
		t.Errorf("setSingle = %+v", s)
	}
}

func TestBumpedCopies(t *testing.T) {
	var s, b inflSet
	s.setSingle(3)
	b.setBumped(s)
	if b.items[0].dist != 1 {
		t.Errorf("bumped dist = %d, want 1", b.items[0].dist)
	}
	// The source must be untouched (it is a live value's set).
	if s.items[0].dist != 0 {
		t.Error("setBumped mutated its source")
	}
	b.items[0].gen = 99
	if s.items[0].gen != 3 {
		t.Error("setBumped aliases its source's storage")
	}
}

func TestMergeUnionsMaxDistance(t *testing.T) {
	a := inflSet{items: []inflItem{{gen: 1, dist: 5}, {gen: 2, dist: 1}}}
	b := inflSet{items: []inflItem{{gen: 1, dist: 3}, {gen: 3, dist: 7}}}
	m := union([]inflSet{a, b}, MaxTrackedGens)
	got := items(m)
	want := map[uint32]uint32{1: 5, 2: 1, 3: 7}
	if len(got) != len(want) {
		t.Fatalf("merged = %v, want %v", got, want)
	}
	for g, d := range want {
		if got[g] != d {
			t.Errorf("gen %d dist = %d, want %d (longest path wins)", g, got[g], d)
		}
	}
	if m.over {
		t.Error("merge under the cap must not set overflow")
	}
	if m.maxDist() != 7 {
		t.Errorf("maxDist = %d, want 7", m.maxDist())
	}
}

func TestMergeEdgeCases(t *testing.T) {
	stale := inflSet{items: []inflItem{{gen: 8, dist: 2}}, over: true}
	stale.setUnion(nil, 4)
	if len(stale.items) != 0 || stale.over {
		t.Error("empty union not empty")
	}
	var one inflSet
	one.setSingle(5)
	if got := union([]inflSet{one}, 4); len(got.items) != 1 || got.items[0].gen != 5 {
		t.Error("single-set union should copy the set")
	}
}

// TestInflBuffersReused pins the buffer discipline the model pass relies
// on: each set-writing form overwrites its destination inside the
// destination's own storage and leaves its sources untouched.
func TestInflBuffersReused(t *testing.T) {
	a := inflSet{items: []inflItem{{gen: 1, dist: 5}, {gen: 2, dist: 1}}}
	b := inflSet{items: []inflItem{{gen: 3, dist: 7}}, over: true}
	aWant := append([]inflItem(nil), a.items...)
	bWant := append([]inflItem(nil), b.items...)

	dst := inflSet{items: make([]inflItem, 0, MaxTrackedGens)}
	base := &dst.items[:1][0]
	dst.setUnion([]inflSet{a, b}, MaxTrackedGens)
	dst.setBumped(a)
	dst.setSingle(4)
	dst.setUnion([]inflSet{b, a}, MaxTrackedGens)
	if &dst.items[0] != base || cap(dst.items) != MaxTrackedGens {
		t.Error("destination storage was not reused")
	}
	if got := items(dst); len(got) != 3 || got[1] != 5 || got[2] != 1 || got[3] != 7 || !dst.over {
		t.Errorf("union into a reused buffer = %+v", dst)
	}
	for _, c := range []struct {
		name      string
		got, want []inflItem
	}{{"a", a.items, aWant}, {"b", b.items, bWant}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("source %s resized: %v", c.name, c.got)
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("source %s modified: %v, want %v", c.name, c.got, c.want)
			}
		}
	}
	if a.over || !b.over {
		t.Error("source overflow flags modified")
	}
}

func TestTrimKeepsLargestDistances(t *testing.T) {
	s := inflSet{}
	for g := uint32(0); g < 10; g++ {
		s.items = append(s.items, inflItem{gen: g, dist: g * 10})
	}
	s.trim(3)
	if len(s.items) != 3 || !s.over {
		t.Fatalf("trim result: %d items, over=%v", len(s.items), s.over)
	}
	// The survivors must be the three largest distances (the earliest
	// generators, which Fig. 11's distance metric needs exact).
	got := items(s)
	for _, g := range []uint32{7, 8, 9} {
		if got[g] != g*10 {
			t.Errorf("survivor set %v missing gen %d", got, g)
		}
	}
	if s.maxDist() != 90 {
		t.Errorf("maxDist after trim = %d, want 90", s.maxDist())
	}
}

func TestMergeOverflowPropagates(t *testing.T) {
	over := inflSet{items: []inflItem{{gen: 1, dist: 1}}, over: true}
	clean := inflSet{items: []inflItem{{gen: 2, dist: 2}}}
	m := union([]inflSet{over, clean}, MaxTrackedGens)
	if !m.over {
		t.Error("overflow flag lost in merge")
	}
}

func TestMergeCapsAtLimit(t *testing.T) {
	var sets []inflSet
	for g := uint32(0); g < 20; g++ {
		sets = append(sets, inflSet{items: []inflItem{{gen: g, dist: g}}})
	}
	m := union(sets, 6)
	if len(m.items) != 6 || !m.over {
		t.Fatalf("capped merge: %d items, over=%v", len(m.items), m.over)
	}
	// Largest distances survive.
	got := items(m)
	for g := uint32(14); g < 20; g++ {
		if _, ok := got[g]; !ok {
			t.Errorf("survivors %v missing gen %d", got, g)
		}
	}
}
