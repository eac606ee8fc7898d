package dpg

import (
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// This file is the model pass: the predictor and classification sweep. It
// is order-dependent by nature — every event updates predictor state the
// next event's outcomes depend on — so it always consumes the stream in
// execution order, downstream of whatever produced the static counts it
// needs up front (a trace's footer, or the pre-pass).

// value is the model's record of one live produced value: who produced it,
// whether it was predicted at production, the generator influence it
// carries, and which static consumers have used it (for single- vs
// repeated-use arc classification). Each live record is owned by exactly
// one slot — a register or a memory word — and returns to the pass's free
// list when that slot is overwritten; a recycled record keeps the storage
// of its infl and uses slices.
type value struct {
	isD       bool
	writeOnce bool // producer's static instruction executes exactly once
	predicted bool
	src       NodeRef // producing node (or D node), for fragment recording
	infl      inflSet
	uses      []useRec
}

// useRec tracks consumptions of one value by one static instruction.
type useRec struct {
	pc         uint32
	count      uint32
	firstLabel ArcLabel // label of the first arc, for retroactive reclassification
}

// repeatedUse returns the repeated-use class for arcs from this value's
// producer: repeated-input use for D nodes, write-once for single-execution
// producers, plain repeated otherwise.
func (v *value) repeatedUse() ArcUse {
	switch {
	case v.isD:
		return UseRepeatedInput
	case v.writeOnce:
		return UseWriteOnce
	default:
		return UseRepeated
	}
}

// genClass returns the generator class of a generating arc sourced at this
// value. Class is a property of the producer: D nodes generate input-data
// (D) predictability, write-once producers W, and everything else control
// (C). (The paper's buckets additionally split C arcs by single/repeated
// use; that split lives in ArcCount, not in the class.)
func (v *value) genClass() GenClass {
	switch {
	case v.isD:
		return GenD
	case v.writeOnce:
		return GenW
	default:
		return GenC
	}
}

// predictorOracle supplies the four predictor verdicts the classification
// sweep consumes. Every call is a pure function of the event stream and the
// Config — which predictor calls happen, with which keys and values, is
// fully determined by each event's fields — so the verdicts can either be
// computed live (livePreds, the ordinary sequential pass) or replayed from
// a recording produced by a run-ahead predictor chain (the speculative
// pass, see speculate.go).
type predictorOracle interface {
	// predictInput runs the input-side predictor for one operand slot:
	// predict, compare against actual, update (immediate update, per the
	// paper's methodology).
	predictInput(pc uint32, slot int, actual uint32) bool
	// predictOutput runs the output-side predictor for the produced value
	// under the given (possibly correlated, see outputKey) key.
	predictOutput(key uint64, actual uint32) bool
	// predictBranch resolves the branch at pc and reports whether the
	// predicted direction matched taken.
	predictBranch(pc uint32, taken bool) bool
	// predictAddr runs the address predictor for the memory access at pc.
	predictAddr(pc uint32, addr uint32) bool
}

// livePreds is the live predictorOracle: the four predictor instances the
// sequential model pass owns, updated in stream order.
type livePreds struct {
	in   predictor.Predictor
	out  predictor.Predictor
	br   *predictor.GShare
	addr *predictor.Stride
}

func (l *livePreds) predictInput(pc uint32, slot int, actual uint32) bool {
	key := inputKey(pc, slot)
	pv, ok := l.in.Predict(key)
	l.in.Update(key, actual)
	return ok && pv == actual
}

func (l *livePreds) predictOutput(key uint64, actual uint32) bool {
	pv, ok := l.out.Predict(key)
	l.out.Update(key, actual)
	return ok && pv == actual
}

func (l *livePreds) predictBranch(pc uint32, taken bool) bool {
	predTaken := l.br.Predict(pc)
	l.br.Update(pc, taken)
	return predTaken == taken
}

func (l *livePreds) predictAddr(pc uint32, addr uint32) bool {
	av, ok := l.addr.Predict(uint64(pc))
	l.addr.Update(uint64(pc), addr)
	return ok && av == addr
}

// modelPass is the sequential predictor/classification pass. It holds every
// piece of order-dependent model state; Builder is its public façade.
type modelPass struct {
	cfg    Config
	oracle predictorOracle

	res         *Result
	staticCount []uint64

	regs [isa.NumRegs]*value
	mem  map[uint32]*value

	// Generator table, indexed by generator id. It holds only generators
	// a live value may still reference: compactGens folds the rest into
	// the Result and renumbers the survivors (see maybeCompact).
	genClass []GenClass
	genTree  []uint64
	genDepth []uint32
	genPC    []uint32
	// liveGens is compactGens' buffer of referenced ids, sorted; its
	// length after the last compaction sets the next trigger.
	liveGens []uint32
	// genPoints accumulates the generate points of PCs below
	// len(staticCount), indexed by pc; Finish puts those with generators
	// into Result.GenPoints. Without static counts it is empty and every
	// pc goes to the map directly.
	genPoints []GenPoint

	// Value records released by overwritten slots, reused by newValue.
	free []*value
	// Influence-set buffers the pass owns, disjoint from each other and
	// from every live value's: one contribution per operand slot (0 and 1
	// are register operands, 2 the memory/input operand), the union of
	// several contributions, and the set of a classified node that
	// installs no value (branches, jr, writes to $0).
	contrib [3]inflSet
	merge   inflSet
	scratch inflSet

	runLen   uint64 // current predictable-sequence run length
	nodeIdx  uint64 // index of the dynamic instruction being observed
	finished bool
}

// newModelPass prepares the sequential pass; see NewBuilder for the
// contract (this is its implementation).
func newModelPass(name string, staticCount []uint64, cfg Config) (m *modelPass, err error) {
	if cfg.Predictor == nil {
		return nil, fmt.Errorf("%w: Config.Predictor is required", ErrConfig)
	}
	if cfg.GShareBits == 0 {
		cfg.GShareBits = predictor.DefaultGShareBits
	}
	// Predictor constructors validate their parameters by panicking;
	// convert that into the error taxonomy at this boundary.
	defer func() {
		if r := recover(); r != nil {
			m, err = nil, fmt.Errorf("%w: %v", ErrConfig, r)
		}
	}()
	live := &livePreds{
		in:   cfg.Predictor(),
		br:   predictor.NewGShare(cfg.GShareBits),
		addr: predictor.NewStride(predictor.DefaultTableBits),
	}
	if cfg.SharedInputOutput {
		live.out = live.in
	} else {
		live.out = cfg.Predictor()
	}
	predName := cfg.PredictorName
	if predName == "" {
		predName = live.in.Name()
	}
	return newModelPassOracle(name, staticCount, cfg, predName, live), nil
}

// newModelPassOracle prepares a sequential pass whose predictor verdicts
// come from an already-built oracle. The speculative committer uses it to
// run the classification sweep against recorded outcomes without owning
// live predictor instances.
func newModelPassOracle(name string, staticCount []uint64, cfg Config, predName string, o predictorOracle) *modelPass {
	if cfg.GShareBits == 0 {
		cfg.GShareBits = predictor.DefaultGShareBits
	}
	m := &modelPass{
		cfg:         cfg,
		oracle:      o,
		staticCount: staticCount,
		mem:         make(map[uint32]*value),
		res: &Result{
			Name:      name,
			Predictor: predName,
		},
	}
	if cfg.GraphLimit > 0 {
		m.res.Graph = &Fragment{}
	}
	if !cfg.DisablePaths {
		m.res.GenPoints = make(map[uint32]*GenPoint)
		m.genPoints = make([]GenPoint, len(staticCount))
	}
	return m
}

// newValue returns an empty value record, recycled from the free list
// when one is available.
func (m *modelPass) newValue() *value {
	n := len(m.free)
	if n == 0 {
		return &value{}
	}
	v := m.free[n-1]
	m.free = m.free[:n-1]
	return v
}

// release returns a record no slot owns any more to the free list,
// emptying it but keeping the storage of its infl and uses slices.
func (m *modelPass) release(v *value) {
	if v == nil {
		return
	}
	*v = value{infl: inflSet{items: v.infl.items[:0]}, uses: v.uses[:0]}
	m.free = append(m.free, v)
}

// newDValue creates a fresh D node's value record.
func (m *modelPass) newDValue() *value {
	m.res.DNodes++
	v := m.newValue()
	v.isD = true
	v.src = NodeRef{ID: m.res.DNodes - 1, D: true}
	return v
}

// regValue returns the live value in register r, creating a D record for
// initial machine state (e.g. $sp, $gp set at startup) on first read.
func (m *modelPass) regValue(r uint8) *value {
	if m.regs[r] == nil {
		m.regs[r] = m.newDValue()
	}
	return m.regs[r]
}

// memValue returns the live value at the (word-aligned) address, creating a
// D record for statically allocated or never-written data on first read.
// Dependence tracking is word-granular; byte accesses map to their word.
func (m *modelPass) memValue(addr uint32) *value {
	v := m.mem[addr]
	if v == nil {
		v = m.newDValue()
		m.mem[addr] = v
	}
	return v
}

// newGen allocates a generator instance of class c, attributed to the
// static instruction at pc (for generating arcs, the consumer whose input
// stream became predictable), and returns its id.
func (m *modelPass) newGen(c GenClass, pc uint32) uint32 {
	id := uint32(len(m.genClass))
	m.genClass = append(m.genClass, c)
	m.genTree = append(m.genTree, 0)
	m.genDepth = append(m.genDepth, 0)
	m.genPC = append(m.genPC, pc)
	m.res.Trees.ClassGens[c]++
	return id
}

// compactFloor is the smallest generator table maybeCompact sweeps.
const compactFloor = 4096

// maybeCompact compacts the generator table once it has grown to twice
// the live count the last compaction left, to the number of slots a sweep
// walks, and to compactFloor, whichever is largest. Each sweep then pays
// for itself with at least as many new generators as it walks, so the
// cost stays amortised O(1) per generator. It runs only between events:
// mid-event, the operand contributions hold fresh ids no slot owns yet.
func (m *modelPass) maybeCompact() {
	n := len(m.genClass)
	if n >= compactFloor && n >= 2*len(m.liveGens) && n >= isa.NumRegs+len(m.mem) {
		m.compactGens()
	}
}

// compactGens folds every generator no live value references into the
// Result and renumbers the survivors 0..k-1 in id order. A generator only
// grows through the influence sets of values derived from it, so an
// unreferenced one is final. Renumbering is a bijection applied in place,
// which keeps every set's item order: sets compare ids only for equality
// and trim breaks distance ties by position, so the Result does not depend
// on when compaction runs. The pass's own influence buffers hold only the
// previous event's sets, which are rewritten before they are read; they
// are emptied here rather than renumbered.
func (m *modelPass) compactGens() {
	live := m.liveGens[:0]
	m.eachLiveValue(func(v *value) {
		for _, it := range v.infl.items {
			live = append(live, it.gen)
		}
	})
	slices.Sort(live)
	live = slices.Compact(live)
	m.liveGens = live

	next := 0
	for id := range m.genClass {
		if next < len(live) && live[next] == uint32(id) {
			m.genClass[next] = m.genClass[id]
			m.genTree[next] = m.genTree[id]
			m.genDepth[next] = m.genDepth[id]
			m.genPC[next] = m.genPC[id]
			next++
		} else {
			m.foldGen(id)
		}
	}
	m.genClass = m.genClass[:next]
	m.genTree = m.genTree[:next]
	m.genDepth = m.genDepth[:next]
	m.genPC = m.genPC[:next]

	m.eachLiveValue(func(v *value) {
		for i := range v.infl.items {
			j, _ := slices.BinarySearch(live, v.infl.items[i].gen)
			v.infl.items[i].gen = uint32(j)
		}
	})
	for i := range m.contrib {
		m.contrib[i].clear()
	}
	m.merge.clear()
	m.scratch.clear()
}

// eachLiveValue calls f with every value record a register or memory word
// owns.
func (m *modelPass) eachLiveValue(f func(*value)) {
	for _, v := range m.regs {
		if v != nil {
			f(v)
		}
	}
	for _, v := range m.mem {
		f(v)
	}
}

// foldGen adds generator id's final tree to the Result's tree statistics
// and its generate point. Finish folds the survivors of the last
// compaction through the same path.
func (m *modelPass) foldGen(id int) {
	ts := &m.res.Trees
	size := m.genTree[id]
	bk := BucketOf(m.genDepth[id])
	ts.GensByDepth[bk]++
	ts.SizeByDepth[bk] += size
	ts.Gens++
	ts.Size += size
	if m.res.GenPoints != nil {
		pc := m.genPC[id]
		var gp *GenPoint
		if int(pc) < len(m.genPoints) {
			gp = &m.genPoints[pc]
		} else if gp = m.res.GenPoints[pc]; gp == nil {
			gp = &GenPoint{PC: pc}
			m.res.GenPoints[pc] = gp
		}
		gp.Gens++
		gp.TreeSize += size
	}
}

// recordPropagatingElement accounts one propagating node or arc whose
// influence set is s (distances already include this element).
func (m *modelPass) recordPropagatingElement(s inflSet) {
	if m.cfg.DisablePaths {
		return
	}
	ps := &m.res.Path
	ps.Elems++
	mask := 0
	for _, it := range s.items {
		mask |= 1 << m.genClass[it.gen]
		m.genTree[it.gen]++
		if it.dist > m.genDepth[it.gen] {
			m.genDepth[it.gen] = it.dist
		}
	}
	for c := GenClass(0); c < NumGenClass; c++ {
		if mask&(1<<c) != 0 {
			ps.ClassElems[c]++
		}
	}
	ps.ComboElems[mask]++
	if s.over {
		ps.NumGenHist[MaxTrackedGens+1]++
	} else {
		ps.NumGenHist[len(s.items)]++
	}
	ps.DistHist[BucketOf(s.maxDist())]++
}

// processArc accounts the dependence arc from v to the consumer at
// consumerPC whose operand prediction outcome is consumerPred. It returns
// the influence contribution flowing into the consumer (empty unless the
// consumer-side prediction was correct), written into the operand slot's
// buffer dst.
func (m *modelPass) processArc(v *value, consumerPC uint32, consumerPred bool, consumedVal uint32, dst *inflSet) inflSet {
	label := arcLabel(v.predicted, consumerPred)
	m.res.Arcs++
	if v.isD {
		m.res.DArcs++
	}
	if g := m.res.Graph; g != nil && m.nodeIdx < uint64(m.cfg.GraphLimit) {
		g.Arcs = append(g.Arcs, FragmentArc{
			From: v.src, To: m.nodeIdx, Label: label, Value: consumedVal,
		})
	}

	// Single- vs repeated-use classification, with retroactive promotion of
	// the first arc once a second use by the same static consumer appears.
	use := UseSingle
	found := false
	for i := range v.uses {
		if v.uses[i].pc == consumerPC {
			u := &v.uses[i]
			u.count++
			use = v.repeatedUse()
			if u.count == 2 {
				m.res.ArcCount[UseSingle][u.firstLabel]--
				m.res.ArcCount[use][u.firstLabel]++
			}
			found = true
			break
		}
	}
	if !found {
		v.uses = append(v.uses, useRec{pc: consumerPC, count: 1, firstLabel: label})
	}
	m.res.ArcCount[use][label]++

	if m.cfg.DisablePaths {
		return inflSet{}
	}
	switch label {
	case ArcPP:
		// The arc itself is a propagating element one step farther from
		// every generator than its producer.
		dst.setBumped(v.infl)
		m.recordPropagatingElement(*dst)
		return *dst
	case ArcNP:
		// The arc generates predictability: it roots a new tree.
		dst.setSingle(m.newGen(v.genClass(), consumerPC))
		return *dst
	default: // ArcPN terminates, ArcNN propagates unpredictability
		return inflSet{}
	}
}

// inputKey derives the input-predictor key for (pc, operand slot). Slots 0
// and 1 are register operands; slot 2 is the memory/input data operand.
func inputKey(pc uint32, slot int) uint64 {
	return uint64(pc)<<2 | uint64(slot)
}

// outputKey derives the output-predictor key for the instruction at pc:
// the PC alone, or the PC correlated with the source operand values under
// Config.CorrelateOutputs.
func outputKey(cfg *Config, pc uint32, e *trace.Event) uint64 {
	if cfg.CorrelateOutputs {
		return correlationKey(pc, e)
	}
	return uint64(pc)
}

// Observe feeds one dynamic instruction to the pass. Events with
// out-of-range fields — which would otherwise index past the register
// file or the static-count table — are rejected with an error matching
// ErrMalformedEvent and leave the model state untouched.
func (m *modelPass) Observe(e *trace.Event) error {
	if m.finished {
		return fmt.Errorf("%w: Observe after Finish", ErrConfig)
	}
	if err := m.checkEvent(e); err != nil {
		return err
	}
	m.maybeCompact()
	res := m.res
	m.nodeIdx = res.Nodes
	res.Nodes++
	pc := e.PC
	op := e.Op
	f := &opTable[op]

	hasImm := e.HasImm
	anyP, anyN := false, false
	var contribs [3]inflSet // predicted inputs' contributions, in slot order
	nContrib := 0
	dataPred := false

	// Register source operands. Reads of $0 are immediates.
	for slot := 0; slot < int(e.NSrc); slot++ {
		r := e.SrcReg[slot]
		if r == 0 {
			hasImm = true
			continue
		}
		v := m.regValue(r)
		pred := m.oracle.predictInput(pc, slot, e.SrcVal[slot])
		contrib := m.processArc(v, pc, pred, e.SrcVal[slot], &m.contrib[slot])
		if pred {
			anyP = true
			if len(contrib.items) > 0 {
				contribs[nContrib] = contrib
				nContrib++
			}
		} else {
			anyN = true
		}
		if f.pass && !f.dataIsMem && slot == int(f.dataSlot) {
			dataPred = pred
		}
	}

	// Memory/input data operand of loads and `in`.
	if f.load || f.in {
		var v *value
		if f.in {
			v = m.newDValue() // every program input word is a fresh D node
		} else {
			v = m.memValue(e.Addr &^ 3)
		}
		pred := m.oracle.predictInput(pc, 2, e.MemVal)
		contrib := m.processArc(v, pc, pred, e.MemVal, &m.contrib[2])
		if pred {
			anyP = true
			if len(contrib.items) > 0 {
				contribs[nContrib] = contrib
				nContrib++
			}
		} else {
			anyN = true
		}
		dataPred = pred
		if f.in {
			m.release(v) // no slot owns an input word's D node
		}
	}

	// Address-prediction extension (paper §1): cross-tabulate effective-
	// address vs data predictability at memory instructions. The address
	// predictor is a per-PC 2-delta stride predictor, the form first
	// proposed for addresses; it is observational only and never feeds
	// classification.
	if f.memOp {
		addrP := m.oracle.predictAddr(pc, e.Addr)
		ai, di := 0, 0
		if addrP {
			ai = 1
		}
		if dataPred {
			di = 1
		}
		m.res.Addr.Count[ai][di]++
		if f.load {
			m.res.Addr.Loads++
		} else {
			m.res.Addr.Stores++
		}
	}

	// Output prediction and node classification.
	classified := false
	outP := false
	switch {
	case f.branch:
		outP = m.oracle.predictBranch(pc, e.Taken)
		classified = true
	case f.writes:
		if f.pass {
			// Memory instructions and register-indirect jumps copy the
			// consumer-side prediction of their data input; they never
			// consult the output predictor and never generate (paper §3).
			outP = dataPred
		} else {
			outP = m.oracle.predictOutput(outputKey(&m.cfg, pc, e), e.DstVal)
		}
		classified = true
	default:
		res.NeutralNodes++
	}

	// The record of the value this node installs, if any. Its influence set
	// is built in the record's own buffer; a classified node that installs
	// nothing builds it in the scratch buffer.
	var nv *value
	outInfl := &m.scratch
	if f.installs(e.DstReg) {
		nv = m.newValue()
		outInfl = &nv.infl
	}
	if classified {
		class := classifyNode(anyP, anyN, hasImm, outP)
		res.NodeCount[class]++
		res.NodeByGroup[f.group][class]++
		if f.branch {
			res.Branch.Count[class]++
			res.Branch.Branches++
			if outP {
				res.Branch.Correct++
			}
		}
		if !m.cfg.DisablePaths {
			switch {
			case class.Propagates():
				var merged inflSet
				switch nContrib {
				case 0:
				case 1:
					// Read the one contribution in place: the merge
					// buffer never adopts an operand slot's storage.
					merged = contribs[0]
				default:
					m.merge.setUnion(contribs[:nContrib], MaxTrackedGens)
					merged = m.merge
				}
				outInfl.setBumped(merged)
				m.recordPropagatingElement(*outInfl)
			case class.Generates():
				outInfl.setSingle(m.newGen(genClassForNode(class), pc))
			}
		}
	}

	// Install the produced value for downstream consumers, recycling the
	// record it replaces.
	if nv != nil {
		nv.writeOnce = int(pc) < len(m.staticCount) && m.staticCount[pc] == 1
		nv.predicted = outP
		nv.src = NodeRef{ID: m.nodeIdx}
		if f.store {
			a := e.Addr &^ 3
			m.release(m.mem[a])
			m.mem[a] = nv
		} else {
			// For jalr this attaches the (pass-through) target prediction
			// outcome to the written return address — a simplification;
			// indirect calls are rare in the workloads.
			m.release(m.regs[e.DstReg])
			m.regs[e.DstReg] = nv
		}
	}

	if g := res.Graph; g != nil && m.nodeIdx < uint64(m.cfg.GraphLimit) {
		fn := FragmentNode{ID: m.nodeIdx, PC: pc, Op: op, HasImm: hasImm, Classified: classified}
		if classified {
			fn.Class = classifyNode(anyP, anyN, hasImm, outP)
		}
		g.Nodes = append(g.Nodes, fn)
	}

	// Predictable contiguous sequences (§4.6): an instruction belongs to a
	// run when all its inputs and outputs were predicted correctly
	// (vacuously true for input- and output-less instructions like j/nop).
	if !anyN && (!classified || outP) {
		m.runLen++
	} else {
		m.endRun()
	}

	return nil
}

// opFacts is what the model pass reads about an opcode. opTable holds
// them precomputed from isa, so Observe reads one entry per event instead
// of calling the isa predicates, each of which copies the opcode's Info.
type opFacts struct {
	load   bool // isa.IsLoad
	store  bool // isa.IsStore
	branch bool // isa.IsBranch
	writes bool // isa.WritesValue: the node has an output to classify
	// pass marks pass-through opcodes (isa.DataSlot's ok): their output
	// copies the consumer-side prediction of their data input, which is
	// the memory/input value when dataIsMem and register slot dataSlot
	// otherwise.
	pass      bool
	dataIsMem bool
	dataSlot  uint8
	memOp     bool // a memory access: isa.MemWidth(op) != 0
	in        bool // isa.OpIn
	jr        bool // isa.OpJr
	group     OpGroup
}

// opTable holds the facts of every valid opcode, indexed by opcode; as
// an isa.Op is a uint8, indexing it needs no bounds check. The entries of
// invalid opcodes stay zero: checkModelEvent rejects such events before
// Observe reads the table.
var opTable = func() (t [1 << 8]opFacts) {
	for op := isa.Op(1); int(op) < isa.NumOps(); op++ {
		slot, mem, pass := isa.DataSlot(op)
		t[op] = opFacts{
			load:      isa.IsLoad(op),
			store:     isa.IsStore(op),
			branch:    isa.IsBranch(op),
			writes:    isa.WritesValue(op),
			pass:      pass,
			dataIsMem: mem,
			dataSlot:  uint8(slot),
			memOp:     isa.MemWidth(op) != 0,
			in:        op == isa.OpIn,
			jr:        op == isa.OpJr,
			group:     GroupOf(op),
		}
	}
	return t
}()

// installs reports whether a node of this opcode with destination dst
// produces a value some slot keeps: stores write a memory word, and other
// value-writing nodes a register other than $0. Branches and jr targets
// flow to control, not to a slot.
func (f *opFacts) installs(dst uint8) bool {
	switch {
	case !f.writes || f.branch || f.jr:
		return false
	case f.store:
		return true
	default:
		return dst != isa.NoReg && dst != 0
	}
}

// checkEvent validates the event fields the model indexes by, keeping
// every downstream array access in bounds.
func (m *modelPass) checkEvent(e *trace.Event) error {
	return checkModelEvent(e, m.staticCount)
}

// checkModelEvent is the model's event validation as a free function, so
// the speculative predictor chains can apply exactly the same acceptance
// rule as the sequential pass (both sides must stop at the same event).
func checkModelEvent(e *trace.Event, staticCount []uint64) error {
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
	if staticCount != nil && int(e.PC) >= len(staticCount) {
		return fmt.Errorf("%w: pc %d out of range (%d static)", ErrMalformedEvent, e.PC, len(staticCount))
	}
	return nil
}

// endRun closes the current predictable sequence, if any.
func (m *modelPass) endRun() {
	if m.runLen == 0 {
		return
	}
	n := m.runLen
	m.runLen = 0
	bk := BucketOf(uint32(min(n, 1<<31-1)))
	m.res.Seq.InstrByLen[bk] += n
	m.res.Seq.RunsByLen[bk]++
	m.res.Seq.PredictableInstrs += n
}

// Finish closes the run and folds the generators still in the table into
// TreeStats and GenPoints. The pass must not be used afterwards.
func (m *modelPass) Finish() (*Result, error) {
	if m.finished {
		return nil, fmt.Errorf("%w: Finish called twice", ErrConfig)
	}
	m.finished = true
	m.endRun()
	for id := range m.genClass {
		m.foldGen(id)
	}
	for pc := range m.genPoints {
		if gp := &m.genPoints[pc]; gp.Gens > 0 {
			gp.PC = uint32(pc)
			m.res.GenPoints[gp.PC] = gp
		}
	}
	return m.res, nil
}

// correlationKey folds the instruction's source operand values into its
// output-predictor key (Config.CorrelateOutputs).
func correlationKey(pc uint32, e *trace.Event) uint64 {
	h := uint64(pc)*0x9e3779b97f4a7c15 + 0x100
	for i := uint8(0); i < e.NSrc; i++ {
		h = (h ^ uint64(e.SrcVal[i])) * 0x100000001b3
	}
	return h
}
