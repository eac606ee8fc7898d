package dpg

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// owner names one holder of influence-set or use-list storage in the model
// pass: a register, a memory word, or one of the pass's own buffers.
type owner struct {
	kind byte // 'r' register, 'm' memory word, 'b' pass buffer
	n    uint32
}

func (o owner) String() string {
	switch o.kind {
	case 'r':
		return fmt.Sprintf("reg %d", o.n)
	case 'm':
		return fmt.Sprintf("mem %#x", o.n)
	}
	return [...]string{"contribution buffer 0", "contribution buffer 1",
		"contribution buffer 2", "merge buffer", "scratch buffer"}[o.n]
}

const numPassBuffers = 5

// claim is what one owner holds: its value record (nil for pass buffers
// and empty slots) and the backing arrays of its slices.
type claim struct {
	v      *value
	arrays [2]unsafe.Pointer
}

// ownership checks the model pass's buffer-ownership invariant: every live
// value record sits in exactly one slot (a register or a memory word), no
// record on the free list is live, and no two owners — live values'
// influence sets and use lists, the per-slot contribution buffers, the
// merge buffer and the scratch buffer — share a backing array. Writing a
// set in place is only sound under this invariant: a shared array would
// let one owner's write change another's set.
//
// An event only changes the slots it reads or writes and the pass's
// buffers, so after each event only those owners are re-claimed; sweep
// re-claims every owner from scratch.
type ownership struct {
	claims  map[owner]claim
	arrays  map[unsafe.Pointer]owner
	values  map[*value]owner
	touched []owner
}

func newOwnership() *ownership {
	return &ownership{
		claims: map[owner]claim{},
		arrays: map[unsafe.Pointer]owner{},
		values: map[*value]owner{},
	}
}

func (o *ownership) drop(k owner) {
	c, ok := o.claims[k]
	if !ok {
		return
	}
	delete(o.claims, k)
	for _, p := range c.arrays {
		if p != nil && o.arrays[p] == k {
			delete(o.arrays, p)
		}
	}
	if c.v != nil && o.values[c.v] == k {
		delete(o.values, c.v)
	}
}

// current returns the value record and slices owner k holds now.
func current(m *modelPass, k owner) (*value, inflSet, []useRec) {
	switch k.kind {
	case 'r':
		if v := m.regs[k.n]; v != nil {
			return v, v.infl, v.uses
		}
	case 'm':
		if v := m.mem[k.n]; v != nil {
			return v, v.infl, v.uses
		}
	default:
		switch {
		case k.n < uint32(len(m.contrib)):
			return nil, m.contrib[k.n], nil
		case k.n == 3:
			return nil, m.merge, nil
		default:
			return nil, m.scratch, nil
		}
	}
	return nil, inflSet{}, nil
}

func (o *ownership) take(k owner, p unsafe.Pointer, c int) (unsafe.Pointer, error) {
	if c == 0 {
		return nil, nil // empty-capacity slices own nothing
	}
	if prev, ok := o.arrays[p]; ok {
		return nil, fmt.Errorf("%v shares a backing array with %v", k, prev)
	}
	o.arrays[p] = k
	return p, nil
}

func (o *ownership) claim(m *modelPass, k owner) error {
	if _, ok := o.claims[k]; ok {
		return nil // already claimed in this round
	}
	v, infl, uses := current(m, k)
	var c claim
	if v != nil {
		if prev, ok := o.values[v]; ok {
			return fmt.Errorf("one value record is live in both %v and %v", prev, k)
		}
		o.values[v] = k
		c.v = v
	}
	var err error
	if c.arrays[0], err = o.take(k, unsafe.Pointer(unsafe.SliceData(infl.items)), cap(infl.items)); err != nil {
		return err
	}
	if c.arrays[1], err = o.take(k, unsafe.Pointer(unsafe.SliceData(uses)), cap(uses)); err != nil {
		return err
	}
	o.claims[k] = c
	return nil
}

func (o *ownership) checkFree(m *modelPass) error {
	for _, v := range m.free {
		if k, ok := o.values[v]; ok {
			return fmt.Errorf("free-list record is still live in %v", k)
		}
	}
	return nil
}

// sweep re-claims every owner.
func (o *ownership) sweep(m *modelPass) error {
	clear(o.claims)
	clear(o.arrays)
	clear(o.values)
	for i := uint32(0); i < numPassBuffers; i++ {
		if err := o.claim(m, owner{'b', i}); err != nil {
			return err
		}
	}
	for r := range m.regs {
		if err := o.claim(m, owner{'r', uint32(r)}); err != nil {
			return err
		}
	}
	for a := range m.mem {
		if err := o.claim(m, owner{'m', a}); err != nil {
			return err
		}
	}
	return o.checkFree(m)
}

// observed re-claims the owners event e may have changed: the pass's
// buffers, its source and destination registers, and its memory word.
func (o *ownership) observed(m *modelPass, e *trace.Event) error {
	ks := o.touched[:0]
	for i := uint32(0); i < numPassBuffers; i++ {
		ks = append(ks, owner{'b', i})
	}
	for i := uint8(0); i < e.NSrc; i++ {
		ks = append(ks, owner{'r', uint32(e.SrcReg[i])})
	}
	if e.DstReg < isa.NumRegs {
		ks = append(ks, owner{'r', uint32(e.DstReg)})
	}
	if isa.MemWidth(e.Op) != 0 {
		ks = append(ks, owner{'m', e.Addr &^ 3})
	}
	o.touched = ks
	for _, k := range ks {
		o.drop(k)
	}
	for _, k := range ks {
		if err := o.claim(m, k); err != nil {
			return err
		}
	}
	return o.checkFree(m)
}

// TestModelPassBuffersDisjoint runs every workload at small rounds under
// every predictor and checks the ownership invariant after each event,
// with a full sweep every few thousand events and at the end of each run.
func TestModelPassBuffersDisjoint(t *testing.T) {
	const sweepEvery = 4096
	for _, w := range workloads.All() {
		tr, err := w.TraceRounds(max(1, w.Rounds/100), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range predictor.AllKinds {
			b, err := NewBuilder(tr.Name, tr.StaticCount, Config{Predictor: k.Factory(), PredictorName: k.String()})
			if err != nil {
				t.Fatal(err)
			}
			o := newOwnership()
			for i := range tr.Events {
				e := &tr.Events[i]
				if err := b.Observe(e); err != nil {
					t.Fatalf("%s/%s: event %d: %v", w.Name, k, i, err)
				}
				if (i+1)%sweepEvery == 0 || i == len(tr.Events)-1 {
					err = o.sweep(b.m)
				} else {
					err = o.observed(b.m, e)
				}
				if err != nil {
					t.Fatalf("%s/%s: after event %d: %v", w.Name, k, i, err)
				}
			}
			if _, err := b.Finish(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
