package dpg

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// This file is the epoch-speculative execution of the sequential model
// pass. The pass is order-dependent because every event updates predictor
// state later events' outcomes depend on — but each predictor *verdict* is
// a pure function of the event stream and the Config (see predictorOracle).
// That makes the predictor work, which dominates the pass, decomposable
// into four independent state units:
//
//	input   — the input-side value predictor (plus the output stream when
//	          Config.SharedInputOutput aliases the two sides)
//	output  — the output-side value predictor
//	branch  — the gshare branch predictor
//	addr    — the stride address predictor
//
// Run-ahead predictor chains advance each unit through the trace one epoch
// at a time, recording the per-event outcome bits; the committer replays
// the bits through the classification sweep (newModelPassOracle), which
// stays strictly sequential. Speculation is validated, not trusted: every
// chain stamps each epoch record with an O(1) incremental digest of its
// entry state, and the committer compares it against the digest of the
// state it has committed. On a mismatch (a diverged epoch — in practice
// only inducible via the test-only corruption hook, since the chains
// compute exact state) the committer rebuilds the unit from its last
// trusted checkpoint snapshot (or the initial state), replays the
// committed epochs since — at most Checkpoint-1 of them, the replay
// bound — serves the epoch live, and resyncs the chain from a fresh
// snapshot. A unit that keeps diverging is abandoned: the committer runs
// it live for the rest of the trace, degrading gracefully to sequential
// cost instead of thrashing on replays.
const (
	// specLookahead is how many finished epochs a chain may buffer per unit
	// before it blocks waiting for the committer.
	specLookahead = 2
	// maxSpecMisses is the number of consecutive diverged epochs after
	// which the committer abandons speculation for a unit.
	maxSpecMisses = 3
)

// SpecConfig parameterises a speculative run.
type SpecConfig struct {
	// Workers bounds the number of predictor chains (each chain is one
	// goroutine owning one or more units). <= 0 uses min(GOMAXPROCS, 4);
	// values above the number of units (4, or 3 under SharedInputOutput)
	// are clamped.
	Workers int
	// Epochs is the number of epochs RunSpeculative splits the trace
	// into. <= 0 picks 4 per chain. Epoch boundaries never change any
	// model figure (the test battery proves this); they only trade
	// pipelining granularity against snapshot overhead.
	Epochs int
	// Checkpoint is the snapshot interval in epochs — the divergence
	// replay bound. <= 0 takes no periodic snapshots: every epoch of the
	// in-memory trace stays resident, so a divergence can always replay
	// from the start of the trace, and a snapshot (a full predictor state
	// copy — megabytes for the context predictor) would be pure overhead.
	Checkpoint int
	// Stats, when non-nil, receives run statistics on success.
	Stats *SpecStats

	// corrupt, when non-nil, is the test-only chaos hook: it is asked
	// before a chain processes (unit, epoch) and, when it returns true,
	// the unit's state is poisoned first, forcing the committer to detect
	// divergence and recover. Settable only from within this package.
	corrupt func(unit unitKind, epoch int) bool
}

// SpecStats reports what a speculative run did.
type SpecStats struct {
	Epochs       int  // epochs committed
	Chains       int  // predictor chains run
	Diverged     int  // epoch records rejected by the entry-digest check
	Replayed     int  // epochs served live after a divergence
	ReplayEpochs int  // epochs re-executed to rebuild state from a checkpoint
	Resyncs      int  // chain resynchronisations issued
	Abandoned    int  // units permanently switched to live execution
	Fallback     bool // predictor lacks checkpoint support; ran sequentially
}

// unitKind identifies one of the four independent predictor state units.
type unitKind int

const (
	unitInput unitKind = iota
	unitOutput
	unitBranch
	unitAddr
	numUnitKinds
)

func (u unitKind) String() string {
	switch u {
	case unitInput:
		return "input"
	case unitOutput:
		return "output"
	case unitBranch:
		return "branch"
	case unitAddr:
		return "addr"
	}
	return fmt.Sprintf("unitKind(%d)", int(u))
}

// bitstream is an append-only bit vector: one recorded predictor verdict
// per bit, in stream order.
type bitstream struct {
	w []uint64
	n int
}

// push appends one bit. A nil receiver discards (used when replaying
// events purely for their state effect).
func (b *bitstream) push(v bool) {
	if b == nil {
		return
	}
	if b.n>>6 == len(b.w) {
		b.w = append(b.w, 0)
	}
	if v {
		b.w[b.n>>6] |= 1 << uint(b.n&63)
	}
	b.n++
}

// bitCursor reads a bitstream front to back.
type bitCursor struct {
	s       *bitstream
	i       int
	starved bool
}

func (c *bitCursor) next() bool {
	if c.s == nil || c.i >= c.s.n {
		c.starved = true
		return false
	}
	v := c.s.w[c.i>>6]>>uint(c.i&63)&1 == 1
	c.i++
	return v
}

// drained reports whether every recorded bit was consumed, exactly.
func (c *bitCursor) drained() bool {
	return !c.starved && (c.s == nil || c.i == c.s.n)
}

// unitRecord is one unit's speculative result for one epoch.
type unitRecord struct {
	unit     unitKind
	gen      int // speculation generation; bumped by every resync
	epoch    int
	entryDig uint64             // state digest at epoch entry — the divergence check
	exitDig  uint64             // state digest at epoch exit
	snap     predictor.Snapshot // exit-state checkpoint, on checkpoint epochs
	a, b     bitstream          // verdicts (b: output stream of a shared input unit)
	err      error              // first event-validation failure inside the epoch
}

// resyncMsg rewinds one unit of a chain to a committer-provided state, or
// abandons it (nil snap).
type resyncMsg struct {
	unit  unitKind
	gen   int
	epoch int
	snap  predictor.Snapshot
}

// chainUnit is the chain-side (and committer-replica-side) execution state
// of one unit: the predictor instance plus the event schedule that drives
// it. The schedules mirror modelPass.Observe exactly — which predictor
// calls happen, with which keys and values, per event.
type chainUnit struct {
	kind        unitKind
	shared      bool // input unit also records the output stream
	cfg         *Config
	staticCount []uint64

	value predictor.Predictor // input/output units
	gsh   *predictor.GShare   // branch unit
	str   *predictor.Stride   // addr unit
	ck    predictor.Checkpointer

	records chan *unitRecord
	gen     int
	next    int // next epoch to speculate
	stopped bool
}

func (u *chainUnit) predictValue(key uint64, actual uint32) bool {
	pv, ok := u.value.Predict(key)
	u.value.Update(key, actual)
	return ok && pv == actual
}

// observe advances the unit's state over one event, recording verdict bits
// into a (and b for the shared input unit). Nil streams replay state only.
func (u *chainUnit) observe(e *trace.Event, a, b *bitstream) {
	pc, op := e.PC, e.Op
	switch u.kind {
	case unitInput:
		for slot := 0; slot < int(e.NSrc); slot++ {
			if e.SrcReg[slot] == 0 {
				continue
			}
			a.push(u.predictValue(inputKey(pc, slot), e.SrcVal[slot]))
		}
		if isa.IsLoad(op) || op == isa.OpIn {
			a.push(u.predictValue(inputKey(pc, 2), e.MemVal))
		}
		if u.shared {
			u.observeOutput(e, b)
		}
	case unitOutput:
		u.observeOutput(e, a)
	case unitBranch:
		if isa.IsBranch(op) {
			pt := u.gsh.Predict(pc)
			u.gsh.Update(pc, e.Taken)
			a.push(pt == e.Taken)
		}
	case unitAddr:
		if isa.MemWidth(op) != 0 {
			av, ok := u.str.Predict(uint64(pc))
			u.str.Update(uint64(pc), e.Addr)
			a.push(ok && av == e.Addr)
		}
	}
}

func (u *chainUnit) observeOutput(e *trace.Event, bs *bitstream) {
	op := e.Op
	if !isa.WritesValue(op) || isa.IsBranch(op) {
		return
	}
	if _, _, isPass := isa.DataSlot(op); isPass {
		// Pass-through instructions copy their data input's prediction and
		// never consult the output predictor.
		return
	}
	bs.push(u.predictValue(outputKey(u.cfg, e.PC, e), e.DstVal))
}

// poison corrupts the unit's state (chaos hook): an update under a key no
// real event produces, so the state — and its honest digest — diverge from
// what the committer expects, and keep re-diverging after every resync
// while the hook stays on.
func (u *chainUnit) poison() {
	switch {
	case u.value != nil:
		u.value.Update(^uint64(0), 0xDEADBEEF)
	case u.gsh != nil:
		u.gsh.Update(0x7fffffff, true)
		u.gsh.Update(0x7fffffff, false)
		u.gsh.Update(0x7fffffff, true)
	default:
		u.str.Update(^uint64(0), 0xDEADBEEF)
	}
}

func (u *chainUnit) reset() {
	switch {
	case u.value != nil:
		u.value.Reset()
	case u.gsh != nil:
		u.gsh.Reset()
	default:
		u.str.Reset()
	}
}

// processEpoch speculates one epoch: validate each event with exactly the
// committer's acceptance rule (checkModelEvent), advance the unit, record
// the verdicts. The record carries entry/exit digests and, on checkpoint
// epochs, a full snapshot the committer can later replay from.
func (u *chainUnit) processEpoch(r *specRun, epoch int, events []trace.Event) *unitRecord {
	if f := r.spec.corrupt; f != nil && f(u.kind, epoch) {
		u.poison()
	}
	rec := &unitRecord{unit: u.kind, gen: u.gen, epoch: epoch, entryDig: u.ck.Digest()}
	for i := range events {
		e := &events[i]
		if err := checkModelEvent(e, u.staticCount); err != nil {
			rec.err = err
			break
		}
		u.observe(e, &rec.a, &rec.b)
	}
	rec.exitDig = u.ck.Digest()
	if rec.err == nil && (epoch+1)%r.checkpoint == 0 {
		rec.snap = u.ck.Snapshot()
	}
	return rec
}

// chain is one worker goroutine's set of units plus its resync channel.
type chain struct {
	units  []*chainUnit
	resync chan resyncMsg
}

// nextUnit picks the runnable unit that is furthest behind, so a resynced
// unit catches back up before the others run farther ahead.
func (c *chain) nextUnit() *chainUnit {
	var best *chainUnit
	for _, u := range c.units {
		if u.stopped {
			continue
		}
		if best == nil || u.next < best.next {
			best = u
		}
	}
	return best
}

// apply rewinds (or abandons) one unit per a committer resync.
func (c *chain) apply(m resyncMsg) {
	for _, u := range c.units {
		if u.kind != m.unit {
			continue
		}
		if m.snap == nil {
			u.stopped = true
			return
		}
		u.gen = m.gen
		u.next = m.epoch
		// Restore cannot fail here (same constructor, same geometry). If it
		// somehow does, the unit's digest no longer matches the committer's,
		// so every subsequent epoch reads as diverged and the committer
		// abandons the unit — the safe outcome — rather than trusting it.
		_ = u.ck.Restore(m.snap)
		u.ck.TrackDigest(true)
		return
	}
}

// committer ---------------------------------------------------------------

// unitCommit is the committer's view of one unit: the trusted state digest
// and checkpoint, the record stream from the unit's chain, and the live
// replica used for divergence recovery.
type unitCommit struct {
	kind    unitKind
	ch      *chain
	records chan *unitRecord

	gen    int
	expect int    // epoch of the next record this unit's chain owes us
	dig    uint64 // digest of the committed state at the current boundary

	snap      predictor.Snapshot // last trusted checkpoint (nil = initial state)
	snapEpoch int                // boundary the checkpoint sits at

	live     *chainUnit // committer-owned replica, built on first divergence
	liveAt   int        // boundary the replica's state sits at (-1 = unset)
	liveMode bool       // abandoned: serve live permanently
	misses   int        // consecutive diverged epochs

	rec        *unitRecord // record adopted for the epoch being committed
	curA, curB bitCursor
}

// fetch returns the next current-generation record, discarding speculation
// that predates the unit's last resync. It fails once done is closed: an
// aborted chain exits without sending the record the committer waits for.
func (uc *unitCommit) fetch(done <-chan struct{}) (*unitRecord, error) {
	for {
		var rec *unitRecord
		select {
		case rec = <-uc.records:
		case <-done:
			return nil, fmt.Errorf("%w: run aborted", ErrSpeculation)
		}
		if rec.gen != uc.gen || rec.epoch < uc.expect {
			continue // stale: produced before the chain saw our resync
		}
		if rec.epoch != uc.expect {
			return nil, fmt.Errorf("%w: unit %s expected epoch %d, got %d",
				ErrSpeculation, uc.kind, uc.expect, rec.epoch)
		}
		uc.expect++
		return rec, nil
	}
}

// specOracle is the committer's predictorOracle: per category it either
// replays the recorded verdict bits of an adopted epoch record, or runs
// the unit's live replica (after a divergence or abandonment).
type specOracle struct {
	inC, outC, brC, adC *bitCursor
	inP, outP           predictor.Predictor
	brG                 *predictor.GShare
	adS                 *predictor.Stride
}

func (o *specOracle) predictInput(pc uint32, slot int, actual uint32) bool {
	if o.inC != nil {
		return o.inC.next()
	}
	key := inputKey(pc, slot)
	pv, ok := o.inP.Predict(key)
	o.inP.Update(key, actual)
	return ok && pv == actual
}

func (o *specOracle) predictOutput(key uint64, actual uint32) bool {
	if o.outC != nil {
		return o.outC.next()
	}
	pv, ok := o.outP.Predict(key)
	o.outP.Update(key, actual)
	return ok && pv == actual
}

func (o *specOracle) predictBranch(pc uint32, taken bool) bool {
	if o.brC != nil {
		return o.brC.next()
	}
	pt := o.brG.Predict(pc)
	o.brG.Update(pc, taken)
	return pt == taken
}

func (o *specOracle) predictAddr(pc uint32, addr uint32) bool {
	if o.adC != nil {
		return o.adC.next()
	}
	av, ok := o.adS.Predict(uint64(pc))
	o.adS.Update(uint64(pc), addr)
	return ok && av == addr
}

// specRun is one speculative execution: the trace's epochs, the chains,
// and the sequential committer.
type specRun struct {
	cfg         Config
	spec        SpecConfig
	checkpoint  int
	staticCount []uint64
	shared      bool

	m      *modelPass
	oracle *specOracle
	epochs [][]trace.Event // subslices of the trace, read-only once chains start
	chains []*chain

	commitUnits []*unitCommit
	byKind      [numUnitKinds]*unitCommit

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	stats SpecStats
}

// buildUnit constructs the execution state of one unit. Factory panics are
// converted at this boundary, like newModelPass does.
func (r *specRun) buildUnit(kind unitKind, reuse predictor.Predictor) (u *chainUnit, err error) {
	defer func() {
		if p := recover(); p != nil {
			u, err = nil, fmt.Errorf("%w: %v", ErrConfig, p)
		}
	}()
	u = &chainUnit{
		kind:        kind,
		shared:      r.shared && kind == unitInput,
		cfg:         &r.cfg,
		staticCount: r.staticCount,
	}
	switch kind {
	case unitInput, unitOutput:
		p := reuse
		if p == nil {
			p = r.cfg.Predictor()
		}
		ck, ok := p.(predictor.Checkpointer)
		if !ok {
			return nil, fmt.Errorf("%w: predictor %q lost checkpoint support between constructions",
				ErrSpeculation, p.Name())
		}
		u.value, u.ck = p, ck
	case unitBranch:
		g := predictor.NewGShare(r.cfg.GShareBits)
		u.gsh, u.ck = g, g
	default:
		st := predictor.NewStride(predictor.DefaultTableBits)
		u.str, u.ck = st, st
	}
	u.ck.TrackDigest(true)
	return u, nil
}

// newSpecRun prepares a speculative execution over t, splits its events
// into epochs and starts the chains. fallback is true (with a nil run)
// when the configured predictor does not support checkpointing; the caller
// then runs the plain sequential pass.
func newSpecRun(t *trace.Trace, cfg Config, spec SpecConfig) (run *specRun, fallback bool, err error) {
	if cfg.Predictor == nil {
		return nil, false, fmt.Errorf("%w: Config.Predictor is required", ErrConfig)
	}
	if cfg.GShareBits == 0 {
		cfg.GShareBits = predictor.DefaultGShareBits
	}
	defer func() {
		if p := recover(); p != nil {
			run, fallback, err = nil, false, fmt.Errorf("%w: %v", ErrConfig, p)
		}
	}()
	probe := cfg.Predictor()
	if _, ok := probe.(predictor.Checkpointer); !ok {
		return nil, true, nil
	}
	predName := cfg.PredictorName
	if predName == "" {
		predName = probe.Name()
	}

	r := &specRun{
		cfg:         cfg,
		spec:        spec,
		checkpoint:  spec.Checkpoint,
		staticCount: t.StaticCount,
		shared:      cfg.SharedInputOutput,
		oracle:      &specOracle{},
		done:        make(chan struct{}),
	}
	if r.checkpoint <= 0 {
		r.checkpoint = math.MaxInt
	}

	kinds := []unitKind{unitInput}
	if !r.shared {
		kinds = append(kinds, unitOutput)
	}
	kinds = append(kinds, unitBranch, unitAddr)

	workers := spec.Workers
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), 4)
	}
	workers = max(1, min(workers, len(kinds)))

	r.chains = make([]*chain, workers)
	for i := range r.chains {
		r.chains[i] = &chain{resync: make(chan resyncMsg, numUnitKinds)}
	}
	for i, kind := range kinds {
		var reuse predictor.Predictor
		if kind == unitInput {
			reuse = probe
		}
		cu, err := r.buildUnit(kind, reuse)
		if err != nil {
			return nil, false, err
		}
		cu.records = make(chan *unitRecord, specLookahead)
		c := r.chains[i%workers]
		c.units = append(c.units, cu)
		uc := &unitCommit{kind: kind, ch: c, records: cu.records, liveAt: -1}
		r.commitUnits = append(r.commitUnits, uc)
		r.byKind[kind] = uc
	}
	r.stats.Chains = workers

	n := len(t.Events)
	epochs := spec.Epochs
	if epochs <= 0 {
		epochs = 4 * workers
	}
	epochs = max(1, min(epochs, max(n, 1)))
	per := (n + epochs - 1) / epochs
	for lo := 0; lo < n; lo += per {
		r.epochs = append(r.epochs, t.Events[lo:min(lo+per, n)])
	}
	r.m = newModelPassOracle(t.Name, t.StaticCount, cfg, predName, r.oracle)

	for _, c := range r.chains {
		r.wg.Add(1)
		go r.runChain(c)
	}
	return r, false, nil
}

// runChain is one worker goroutine: round-robin its units through the
// epochs, always advancing the unit that is furthest behind, staying
// responsive to committer resyncs.
func (r *specRun) runChain(c *chain) {
	defer r.wg.Done()
	for {
		// Drain pending resyncs first so rewinds take effect promptly.
		for {
			select {
			case m := <-c.resync:
				c.apply(m)
				continue
			default:
			}
			break
		}
		u := c.nextUnit()
		if u == nil {
			return // every unit abandoned
		}
		if u.next >= len(r.epochs) {
			// Out of work unless the committer rewinds a unit.
			select {
			case m := <-c.resync:
				c.apply(m)
			case <-r.done:
				return
			}
			continue
		}
		rec := u.processEpoch(r, u.next, r.epochs[u.next])
		u.next++
		for rec != nil {
			select {
			case u.records <- rec:
				rec = nil
			case m := <-c.resync:
				if m.unit == u.kind {
					rec = nil // superseded by the rewind
				}
				c.apply(m)
			case <-r.done:
				return
			}
		}
	}
}

// shutdown stops the chains and reclaims them. Idempotent.
func (r *specRun) shutdown() {
	r.closeOnce.Do(func() { close(r.done) })
	r.wg.Wait()
}

// ensureLiveAt brings the unit's live replica to the state at the entry of
// epoch e: restore the last trusted checkpoint (or reset to the initial
// state), then replay the committed epochs in between.
func (r *specRun) ensureLiveAt(uc *unitCommit, e int) error {
	if uc.live == nil {
		u, err := r.buildUnit(uc.kind, nil)
		if err != nil {
			return err
		}
		uc.live = u
		uc.liveAt = -1
	}
	if uc.liveAt == e {
		return nil
	}
	if uc.snap != nil {
		if err := uc.live.ck.Restore(uc.snap); err != nil {
			return fmt.Errorf("%w: restoring unit %s checkpoint: %v", ErrSpeculation, uc.kind, err)
		}
	} else {
		uc.live.reset()
	}
	for _, ev := range r.epochs[uc.snapEpoch:e] {
		// These epochs were already committed, so their events passed
		// validation; replay them for their state effect only.
		for i := range ev {
			uc.live.observe(&ev[i], nil, nil)
		}
		r.stats.ReplayEpochs++
	}
	uc.liveAt = e
	return nil
}

// acquire obtains the verdict source for unit uc at epoch e: the chain's
// record if its entry digest matches the committed state, otherwise the
// live replica rebuilt from the last trusted checkpoint.
func (r *specRun) acquire(uc *unitCommit, e int) error {
	if uc.liveMode {
		uc.rec = nil
		return r.ensureLiveAt(uc, e)
	}
	rec, err := uc.fetch(r.done)
	if err != nil {
		return err
	}
	if rec.entryDig != uc.dig {
		r.stats.Diverged++
		uc.misses++
		uc.rec = nil
		return r.ensureLiveAt(uc, e)
	}
	uc.misses = 0
	uc.rec = rec
	uc.curA = bitCursor{s: &rec.a}
	uc.curB = bitCursor{s: &rec.b}
	return nil
}

// armOracle points each oracle category at its verdict source for the
// epoch being committed.
func (r *specRun) armOracle() {
	o := r.oracle
	in := r.byKind[unitInput]
	if in.rec != nil {
		o.inC, o.inP = &in.curA, nil
	} else {
		o.inC, o.inP = nil, in.live.value
	}
	if r.shared {
		if in.rec != nil {
			o.outC, o.outP = &in.curB, nil
		} else {
			o.outC, o.outP = nil, in.live.value
		}
	} else {
		out := r.byKind[unitOutput]
		if out.rec != nil {
			o.outC, o.outP = &out.curA, nil
		} else {
			o.outC, o.outP = nil, out.live.value
		}
	}
	br := r.byKind[unitBranch]
	if br.rec != nil {
		o.brC, o.brG = &br.curA, nil
	} else {
		o.brC, o.brG = nil, br.live.gsh
	}
	ad := r.byKind[unitAddr]
	if ad.rec != nil {
		o.adC, o.adS = &ad.curA, nil
	} else {
		o.adC, o.adS = nil, ad.live.str
	}
}

// settle closes epoch e: validate that adopted records were consumed
// exactly, adopt exit digests and checkpoints, and resync or abandon
// diverged units.
func (r *specRun) settle(e int) error {
	for _, uc := range r.commitUnits {
		switch {
		case uc.liveMode:
			uc.liveAt = e + 1
		case uc.rec != nil:
			rec := uc.rec
			uc.rec = nil
			if rec.err != nil || !uc.curA.drained() || !uc.curB.drained() {
				return fmt.Errorf("%w: unit %s outcome stream out of step at epoch %d",
					ErrSpeculation, uc.kind, e)
			}
			uc.dig = rec.exitDig
			if rec.snap != nil {
				uc.snap, uc.snapEpoch = rec.snap, e+1
			}
		default:
			// Served live after a divergence.
			uc.liveAt = e + 1
			r.stats.Replayed++
			if uc.misses >= maxSpecMisses {
				uc.liveMode = true
				r.stats.Abandoned++
				uc.ch.resync <- resyncMsg{unit: uc.kind}
			} else {
				snap := uc.live.ck.Snapshot()
				uc.snap, uc.snapEpoch = snap, e+1
				uc.dig = snap.Digest()
				uc.gen++
				uc.expect = e + 1
				r.stats.Resyncs++
				uc.ch.resync <- resyncMsg{unit: uc.kind, gen: uc.gen, epoch: e + 1, snap: snap}
			}
		}
	}
	return nil
}

// commit runs the sequential classification sweep over the epochs,
// consuming the chains' recorded verdicts. A rejected event is reported
// with its index in the trace, as RunWith reports it.
func (r *specRun) commit() (*Result, error) {
	idx := 0
	for e, events := range r.epochs {
		r.stats.Epochs++
		for _, uc := range r.commitUnits {
			if err := r.acquire(uc, e); err != nil {
				return nil, err
			}
		}
		r.armOracle()
		for i := range events {
			if err := r.m.Observe(&events[i]); err != nil {
				return nil, fmt.Errorf("event %d: %w", idx+i, err)
			}
		}
		idx += len(events)
		if err := r.settle(e); err != nil {
			return nil, err
		}
	}
	return r.m.Finish()
}

// RunSpeculative executes the model over an in-memory trace with
// epoch-speculative predictor chains. The Result is byte-identical to
// RunWith's for every configuration — speculation is validated against
// state digests and re-executed on divergence, never trusted. Predictors
// without checkpoint support (predictor.Checkpointer) fall back to the
// sequential pass, reported via SpecStats.Fallback.
func RunSpeculative(t *trace.Trace, cfg Config, spec SpecConfig) (*Result, error) {
	if t == nil {
		return nil, fmt.Errorf("%w: nil trace", ErrConfig)
	}
	r, fallback, err := newSpecRun(t, cfg, spec)
	if err != nil {
		return nil, err
	}
	if fallback {
		res, err := RunWith(t, cfg)
		if err == nil && spec.Stats != nil {
			*spec.Stats = SpecStats{Fallback: true}
		}
		return res, err
	}
	defer r.shutdown()
	res, err := r.commit()
	if err != nil {
		return nil, err
	}
	if spec.Stats != nil {
		*spec.Stats = r.stats
	}
	return res, nil
}
