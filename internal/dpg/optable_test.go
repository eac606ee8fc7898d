package dpg

import (
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// installsValueISA is the model's install rule written against the isa
// predicates, the definition opFacts.installs must reproduce.
func installsValueISA(op isa.Op, dst uint8) bool {
	switch {
	case !isa.WritesValue(op) || isa.IsBranch(op) || op == isa.OpJr:
		return false
	case isa.IsStore(op):
		return true
	default:
		return dst != isa.NoReg && dst != 0
	}
}

// TestOpTableMatchesISA holds every field of every valid opcode's table
// entry to the isa predicate it stands for, and installs to the install
// rule for every destination byte.
func TestOpTableMatchesISA(t *testing.T) {
	for op := isa.Op(1); int(op) < isa.NumOps(); op++ {
		f := opTable[op]
		slot, mem, pass := isa.DataSlot(op)
		checks := []struct {
			field     string
			got, want any
		}{
			{"load", f.load, isa.IsLoad(op)},
			{"store", f.store, isa.IsStore(op)},
			{"branch", f.branch, isa.IsBranch(op)},
			{"writes", f.writes, isa.WritesValue(op)},
			{"pass", f.pass, pass},
			{"dataIsMem", f.dataIsMem, mem},
			{"dataSlot", int(f.dataSlot), slot},
			{"memOp", f.memOp, isa.MemWidth(op) != 0},
			{"in", f.in, op == isa.OpIn},
			{"jr", f.jr, op == isa.OpJr},
			{"group", f.group, GroupOf(op)},
		}
		for _, c := range checks {
			if c.got != c.want {
				t.Errorf("%s: %s = %v, isa says %v", op, c.field, c.got, c.want)
			}
		}
		for dst := 0; dst < 256; dst++ {
			if got, want := f.installs(uint8(dst)), installsValueISA(op, uint8(dst)); got != want {
				t.Errorf("%s: installs(%d) = %v, want %v", op, dst, got, want)
			}
		}
	}
}

// TestOpTableInvalidOpcodeRejected feeds the pass every invalid opcode:
// each must fail with ErrMalformedEvent and leave the model untouched,
// since their table entries are zero and Observe must not reach them.
func TestOpTableInvalidOpcodeRejected(t *testing.T) {
	m, err := newModelPass("x", []uint64{1}, Config{Predictor: predictor.KindLast.Factory()})
	if err != nil {
		t.Fatal(err)
	}
	for op := 0; op < 256; op++ {
		if isa.Valid(isa.Op(op)) {
			continue
		}
		if opTable[op] != (opFacts{}) {
			t.Errorf("opcode %d: invalid opcode has table facts %+v", op, opTable[op])
		}
		e := trace.Event{Op: isa.Op(op), NSrc: 1, SrcReg: [2]uint8{1, 0}, DstReg: 2}
		if err := m.Observe(&e); !errors.Is(err, ErrMalformedEvent) {
			t.Errorf("opcode %d: err = %v, want ErrMalformedEvent", op, err)
		}
	}
	res, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 0 || res.Arcs != 0 || res.DNodes != 0 {
		t.Errorf("rejected events changed the model: %d nodes, %d arcs, %d D nodes", res.Nodes, res.Arcs, res.DNodes)
	}
}
