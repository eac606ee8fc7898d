package dpg

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/trace"
)

// PreStats is the pre-pass summary: everything about a trace the model can
// know without running a predictor. StaticCount is what the sequential
// model pass needs up front (write-once classification); the discovery
// fields predict structural Result quantities exactly — the differential
// tests hold Events/Arcs/DNodes/NeutralNodes/Loads/Stores equal to the
// model's Nodes/Arcs/DNodes/NeutralNodes/Addr.{Loads,Stores}.
type PreStats struct {
	// Events is the dynamic instruction count (the model's Nodes).
	Events uint64
	// StaticCount[pc] is the execution count of the static instruction at
	// pc, the input the sequential pass needs before its sweep.
	StaticCount []uint64
	// DistinctPCs and MaxPC describe the PC universe actually exercised.
	DistinctPCs int
	MaxPC       uint32
	// Arcs is the number of true-dependence arcs the model will create:
	// one per non-$0 register source operand plus one per load/`in` data
	// operand.
	Arcs uint64
	// DNodes is the number of D nodes the model will create: registers
	// read before any write, word addresses whose first access is a load,
	// and one per `in` event.
	DNodes uint64
	// NeutralNodes counts nodes with no classified output.
	NeutralNodes uint64
	// Loads and Stores are the memory-operation populations.
	Loads  uint64
	Stores uint64
}

// firstTouch records how a register or memory word was first accessed:
// whether it has been touched at all, and whether that first access was a
// read. A first read creates a D node in the model; a first write does not.
type firstTouch struct {
	seen bool
	read bool
}

// PrePass is the model's first phase: static execution counts, the PC
// universe, and D-node/arc-shape discovery, accumulated over the events in
// stream order. The second phase, the model pass, threads predictor state
// through every event and needs the static counts up front.
type PrePass struct {
	numStatic int
	counts    []uint64

	events  uint64
	arcs    uint64
	ins     uint64 // `in` events; each is one D node
	neutral uint64
	loads   uint64
	stores  uint64
	maxPC   uint32

	regs [isa.NumRegs]firstTouch
	mem  map[uint32]firstTouch
}

// NewPrePass prepares a pre-pass for a program with numStatic static
// instructions.
func NewPrePass(numStatic int) *PrePass {
	return &PrePass{
		numStatic: numStatic,
		counts:    make([]uint64, numStatic),
		mem:       make(map[uint32]firstTouch),
	}
}

// Observe accumulates one event. Events with out-of-range fields are
// rejected with an error matching ErrMalformedEvent, leaving the pass
// untouched — same contract as the model pass, so either can face
// untrusted input first.
func (p *PrePass) Observe(e *trace.Event) error {
	if err := checkPreEvent(e, p.numStatic); err != nil {
		return err
	}
	p.events++
	if int(e.PC) < len(p.counts) {
		p.counts[e.PC]++
	}
	if e.PC > p.maxPC {
		p.maxPC = e.PC
	}
	op := e.Op

	// Source operands, in the model's consumption order: register slots
	// first (reads of $0 are immediates, no arc), then the memory/input
	// data operand of loads and `in`.
	for slot := 0; slot < int(e.NSrc); slot++ {
		r := e.SrcReg[slot]
		if r == 0 {
			continue
		}
		p.arcs++
		p.touchReg(r, true)
	}
	switch {
	case op == isa.OpIn:
		p.arcs++
		p.ins++
	case isa.IsLoad(op):
		p.arcs++
		p.touchMem(e.Addr&^3, true)
	}

	if isa.MemWidth(op) != 0 {
		if isa.IsLoad(op) {
			p.loads++
		} else {
			p.stores++
		}
	}
	if !isa.IsBranch(op) && !isa.WritesValue(op) {
		p.neutral++
	}

	// Installs, mirroring the model's value plumbing: stores define the
	// word, jr defines nothing, every other writing op defines its
	// destination register (when it has a real one).
	if isa.WritesValue(op) && !isa.IsBranch(op) {
		switch {
		case isa.IsStore(op):
			p.touchMem(e.Addr&^3, false)
		case op == isa.OpJr:
		default:
			if e.DstReg != isa.NoReg && e.DstReg != 0 {
				p.touchReg(e.DstReg, false)
			}
		}
	}
	return nil
}

// touchReg records the first access to a register.
func (p *PrePass) touchReg(r uint8, read bool) {
	if !p.regs[r].seen {
		p.regs[r] = firstTouch{seen: true, read: read}
	}
}

// touchMem records the first access to a word address.
func (p *PrePass) touchMem(addr uint32, read bool) {
	if _, ok := p.mem[addr]; !ok {
		p.mem[addr] = firstTouch{seen: true, read: read}
	}
}

// StaticCounts returns the per-PC execution counts accumulated so far. The
// slice is the pass's own; callers must not modify it while observing.
func (p *PrePass) StaticCounts() []uint64 { return p.counts }

// Stats summarises the pass. Call after the last event.
func (p *PrePass) Stats() PreStats {
	st := PreStats{
		Events:       p.events,
		StaticCount:  p.counts,
		MaxPC:        p.maxPC,
		Arcs:         p.arcs,
		DNodes:       p.ins,
		NeutralNodes: p.neutral,
		Loads:        p.loads,
		Stores:       p.stores,
	}
	for _, c := range p.counts {
		if c > 0 {
			st.DistinctPCs++
		}
	}
	for _, ft := range p.regs {
		if ft.seen && ft.read {
			st.DNodes++
		}
	}
	for _, ft := range p.mem {
		if ft.read {
			st.DNodes++
		}
	}
	return st
}

// checkPreEvent validates the fields the pre-pass indexes by; it matches
// the model pass's event validation so the two reject the same inputs.
func checkPreEvent(e *trace.Event, numStatic int) error {
	if !isa.Valid(e.Op) {
		return fmt.Errorf("%w: invalid opcode %d", ErrMalformedEvent, e.Op)
	}
	if e.NSrc > 2 {
		return fmt.Errorf("%w: %d source operands", ErrMalformedEvent, e.NSrc)
	}
	for i := uint8(0); i < e.NSrc; i++ {
		if e.SrcReg[i] >= isa.NumRegs {
			return fmt.Errorf("%w: source register %d out of range", ErrMalformedEvent, e.SrcReg[i])
		}
	}
	if e.DstReg != isa.NoReg && e.DstReg >= isa.NumRegs {
		return fmt.Errorf("%w: destination register %d out of range", ErrMalformedEvent, e.DstReg)
	}
	if numStatic > 0 && int(e.PC) >= numStatic {
		return fmt.Errorf("%w: pc %d out of range (%d static)", ErrMalformedEvent, e.PC, numStatic)
	}
	return nil
}
