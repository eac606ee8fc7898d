package analysis

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// observerTrace builds one modest integer-workload trace for the fan-out
// tests.
func observerTrace(t testing.TB) *trace.Trace {
	t.Helper()
	w, ok := workloads.ByName("gcc")
	if !ok {
		t.Fatal("no gcc workload")
	}
	tr, err := w.TraceRounds(w.Rounds/8+2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// testSweepConfig is the suite's speculation machine gated at one
// threshold.
var testSweepConfig = SweepConfig{Width: 64, MaxConfidence: 7, Penalty: 8, Thresholds: []uint8{3}}

// soloSims runs each simulator kind alone over tr and returns the
// reference stats.
func soloSims(t *testing.T, tr *trace.Trace) (ReuseStats, ILPStats, []ConfidencePoint, SweepStats) {
	t.Helper()
	reuse := NewReuseSim("gcc", 12)
	ilp := NewSpecSweep("gcc", predictor.KindContext, SweepConfig{})
	conf := NewConfidenceSim(predictor.KindContext, 7)
	spec := NewSpecSweep("gcc", predictor.KindContext, testSweepConfig)
	for _, sim := range []Observer{reuse, ilp, conf, spec} {
		if err := ObserveTrace(tr, sim); err != nil {
			t.Fatal(err)
		}
	}
	return reuse.Stats(), ilp.Stats().ILP, conf.Points(), spec.Stats()
}

// TestObserverOrderInvariance is the metamorphic gate: any registration
// order and any subset of observers yields results identical to running
// each observer alone — observers only read the shared events, so the
// fan-out must be invisible to them.
func TestObserverOrderInvariance(t *testing.T) {
	tr := observerTrace(t)
	wantReuse, wantILP, wantConf, wantSpec := soloSims(t, tr)

	build := func() (*ReuseSim, *SpecSweep, *ConfidenceSim, *SpecSweep) {
		return NewReuseSim("gcc", 12),
			NewSpecSweep("gcc", predictor.KindContext, SweepConfig{}),
			NewConfidenceSim(predictor.KindContext, 7),
			NewSpecSweep("gcc", predictor.KindContext, testSweepConfig)
	}
	orders := [][]int{
		{0, 1, 2, 3},
		{3, 2, 1, 0},
		{2, 0, 3, 1},
		{1, 3}, // subset
		{0},    // singleton
	}
	for _, order := range orders {
		reuse, ilp, conf, spec := build()
		all := []Observer{reuse, ilp, conf, spec}
		var obs []Observer
		for _, i := range order {
			obs = append(obs, all[i])
		}
		if err := ObserveTrace(tr, obs...); err != nil {
			t.Fatalf("order %v: %v", order, err)
		}
		for _, i := range order {
			switch i {
			case 0:
				if reuse.Stats() != wantReuse {
					t.Errorf("order %v: reuse stats diverge from solo run", order)
				}
			case 1:
				if ilp.Stats().ILP != wantILP {
					t.Errorf("order %v: ILP stats diverge from solo run", order)
				}
			case 2:
				if !reflect.DeepEqual(conf.Points(), wantConf) {
					t.Errorf("order %v: confidence points diverge from solo run", order)
				}
			case 3:
				if !reflect.DeepEqual(spec.Stats(), wantSpec) {
					t.Errorf("order %v: speculation stats diverge from solo run", order)
				}
			}
		}
	}
}

// bombObserver panics after observing n events.
type bombObserver struct {
	n    int
	seen int
}

func (b *bombObserver) Observe(e *trace.Event) {
	b.seen++
	if b.seen > b.n {
		panic("bomb")
	}
}

// failFinisher observes nothing and fails at Finish.
type failFinisher struct{ err error }

func (f *failFinisher) Observe(e *trace.Event) {}
func (f *failFinisher) Finish() error          { return f.err }

// countingFinisher records whether Finish ran.
type countingFinisher struct{ finished int }

func (c *countingFinisher) Observe(e *trace.Event) {}
func (c *countingFinisher) Finish() error          { c.finished++; return nil }

// TestObserverPanicIsolation plants a panicking observer between two
// healthy simulators and asserts the failure is typed, attributed to the
// right slot, and invisible to the siblings' results.
func TestObserverPanicIsolation(t *testing.T) {
	tr := observerTrace(t)
	wantReuse, wantILP, _, _ := soloSims(t, tr)

	reuse := NewReuseSim("gcc", 12)
	ilp := NewSpecSweep("gcc", predictor.KindContext, SweepConfig{})
	bomb := &bombObserver{n: 3}
	err := ObserveTrace(tr, reuse, bomb, ilp)
	var oe *ObserverError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want *ObserverError", err)
	}
	if oe.Index != 1 || oe.Panic == nil {
		t.Errorf("observer error misattributed: %+v", oe)
	}
	if reuse.Stats() != wantReuse {
		t.Error("reuse sibling corrupted by a panicking observer")
	}
	if ilp.Stats().ILP != wantILP {
		t.Error("ILP sibling corrupted by a panicking observer")
	}
}

// TestObserverFinishError checks a Finish failure surfaces typed and
// unwrappable, without stopping sibling Finishers.
func TestObserverFinishError(t *testing.T) {
	tr := observerTrace(t)
	boom := errors.New("finish bomb")
	bad := &failFinisher{err: boom}
	good := &countingFinisher{}
	err := ObserveTrace(tr, bad, good)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the Finish error via Unwrap", err)
	}
	var oe *ObserverError
	if !errors.As(err, &oe) || oe.Index != 0 || oe.Err == nil {
		t.Errorf("finish failure not typed/attributed: %v", err)
	}
	if good.finished != 1 {
		t.Errorf("sibling Finish ran %d times, want 1", good.finished)
	}
}

// TestObserverMultipleFailuresJoined checks every failing observer shows
// up in the joined error, each with its own index.
func TestObserverMultipleFailuresJoined(t *testing.T) {
	tr := observerTrace(t)
	err := ObserveTrace(tr, &bombObserver{n: 0}, NewReuseSim("gcc", 8), &bombObserver{n: 5})
	if err == nil {
		t.Fatal("no error from two panicking observers")
	}
	indices := map[int]bool{}
	for _, sub := range []error{err} {
		var joined interface{ Unwrap() []error }
		if errors.As(sub, &joined) {
			for _, e := range joined.Unwrap() {
				var oe *ObserverError
				if errors.As(e, &oe) {
					indices[oe.Index] = true
				}
			}
		}
	}
	if !indices[0] || !indices[2] {
		t.Errorf("joined error misses a failing observer: %v (got indices %v)", err, indices)
	}
}

// errSource delivers one healthy block, then a decode error.
type errSource struct {
	events []trace.Event
	calls  int
	err    error
}

func (s *errSource) NextBlock(b *trace.Block) error {
	s.calls++
	if s.calls == 1 {
		b.Index = 0
		b.Events = s.events
		return nil
	}
	return s.err
}

// TestObserverSourceErrorSkipsFinish checks a source failure aborts the
// run without calling Finish — partial state must not be finalised — and
// the source error dominates the return.
func TestObserverSourceErrorSkipsFinish(t *testing.T) {
	tr := observerTrace(t)
	boom := errors.New("decode bomb")
	fin := &countingFinisher{}
	err := RunObservers(&errSource{events: tr.Events, err: boom}, fin)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the source error", err)
	}
	if fin.finished != 0 {
		t.Errorf("Finish ran %d times after a source error, want 0", fin.finished)
	}
}

// releaseSource wraps a trace.Reader and counts block releases.
type releaseSource struct {
	pr       *trace.Reader
	released int
}

func (s *releaseSource) NextBlock(b *trace.Block) error { return s.pr.NextBlock(b) }
func (s *releaseSource) ReleaseBlock(b *trace.Block) {
	s.released++
	s.pr.ReleaseBlock(b)
}

// TestObserverBlockRelease checks RunObservers hands every delivered block
// back to a releasing source — the recycling half of the O(block·workers)
// memory contract.
func TestObserverBlockRelease(t *testing.T) {
	tr := observerTrace(t)
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, tr, trace.BlockBytes(8<<10)); err != nil {
		t.Fatal(err)
	}
	pr, err := trace.NewReader(bytes.NewReader(buf.Bytes()), trace.Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	src := &releaseSource{pr: pr}
	sim := NewReuseSim("gcc", 12)
	if err := RunObservers(src, sim); err != nil {
		t.Fatal(err)
	}
	if src.released == 0 {
		t.Error("no blocks were released back to the source")
	}
	if sim.Stats().Eligible == 0 {
		t.Error("simulator saw no events")
	}
}

// blockCountingObserver takes the BlockObserver fast path and tallies both
// granularities, proving the fan-out prefers whole blocks.
type blockCountingObserver struct {
	events uint64
	blocks int
}

func (o *blockCountingObserver) Observe(e *trace.Event) { o.events++ }
func (o *blockCountingObserver) ObserveBlock(b *trace.Block) {
	o.blocks++
	o.events += uint64(len(b.Events))
}

// TestObserverBlockFastPath checks a BlockObserver receives whole blocks
// (never per-event calls) and still sees every event exactly once.
func TestObserverBlockFastPath(t *testing.T) {
	tr := observerTrace(t)
	o := &blockCountingObserver{}
	if err := ObserveTrace(tr, o); err != nil {
		t.Fatal(err)
	}
	if o.blocks == 0 {
		t.Error("BlockObserver never took the block fast path")
	}
	if o.events != uint64(len(tr.Events)) {
		t.Errorf("block observer saw %d events, trace has %d", o.events, len(tr.Events))
	}
}

// FuzzObserverFanout is the differential fuzz gate for the fan-out engine:
// for arbitrary (mutated) trace bytes and worker counts, driving a
// simulator through RunObservers over a reader with one to four decode
// workers must agree with a plain one-worker Next loop — same success/failure verdict, and
// identical simulator results on success.
func FuzzObserverFanout(f *testing.F) {
	w, ok := workloads.ByName("fig1")
	if !ok {
		f.Fatal("no fig1 workload")
	}
	tr, err := w.TraceRounds(3, 1)
	if err != nil {
		f.Fatal(err)
	}
	for _, codec := range []trace.Codec{trace.CodecNone, trace.CodecFlate} {
		var buf bytes.Buffer
		if err := trace.WriteAll(&buf, tr, trace.BlockEvents(32), trace.Compression(codec)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint8(2))
	}
	f.Fuzz(func(t *testing.T, data []byte, workers uint8) {
		// Sequential reference: a plain Next loop feeding one simulator.
		seqSim := NewReuseSim("", 8)
		var seqErr error
		if r, err := trace.NewReader(bytes.NewReader(data)); err != nil {
			seqErr = err
		} else {
			var e trace.Event
			for {
				err := r.Next(&e)
				if err == io.EOF {
					break
				}
				if err != nil {
					seqErr = err
					break
				}
				seqSim.Observe(&e)
			}
			r.Close()
		}

		// Fused path: RunObservers over NextBlock.
		fanSim := NewReuseSim("", 8)
		var fanErr error
		if pr, err := trace.NewReader(bytes.NewReader(data), trace.Workers(int(workers%4)+1)); err != nil {
			fanErr = err
		} else {
			fanErr = RunObservers(pr, fanSim)
			pr.Close()
		}

		if (seqErr == nil) != (fanErr == nil) {
			t.Fatalf("verdicts diverge: sequential %v, fan-out %v", seqErr, fanErr)
		}
		if seqErr == nil && seqSim.Stats() != fanSim.Stats() {
			t.Fatalf("stats diverge on identical input: sequential %+v, fan-out %+v",
				seqSim.Stats(), fanSim.Stats())
		}
	})
}

// --- concurrent fan-out -----------------------------------------------------

// fanoutBlockEvents is the block size of the concurrency tests' sources:
// small, so a gcc trace spans hundreds of blocks and the window turns
// over many times.
const fanoutBlockEvents = 64

// chunkSource serves a trace's events as fanoutBlockEvents-sized blocks
// that alias the trace, then io.EOF. It counts NextBlock calls.
type chunkSource struct {
	events []trace.Event
	next   int
	idx    uint64
	calls  int
}

func (s *chunkSource) NextBlock(b *trace.Block) error {
	s.calls++
	if s.next == len(s.events) {
		return io.EOF
	}
	end := min(s.next+fanoutBlockEvents, len(s.events))
	b.Index, b.Events = s.idx, s.events[s.next:end]
	s.idx++
	s.next = end
	return nil
}

// numBlocks is how many blocks a chunkSource cuts n events into.
func numBlocks(n int) uint64 {
	return uint64((n + fanoutBlockEvents - 1) / fanoutBlockEvents)
}

// poisonPC marks an event a poisonSource has taken back; no trace event
// carries it.
const poisonPC = ^uint32(0)

// poisonSource copies the trace into blocks it owns and, on ReleaseBlock,
// overwrites the block's events with poison and recycles the buffer into
// a later block, so an observer still reading a released block sees
// poison or foreign events. An atomic in-use bit flags any overlap of
// NextBlock and ReleaseBlock; outstanding and maxOut track delivered
// minus released blocks.
type poisonSource struct {
	events   []trace.Event
	next     int
	idx      uint64
	free     [][]trace.Event
	released map[uint64]int

	inUse       atomic.Bool
	overlap     atomic.Bool
	calls       atomic.Int64
	outstanding atomic.Int64
	maxOut      atomic.Int64
}

func newPoisonSource(events []trace.Event) *poisonSource {
	return &poisonSource{events: events, released: map[uint64]int{}}
}

func (s *poisonSource) enter() {
	if !s.inUse.CompareAndSwap(false, true) {
		s.overlap.Store(true)
	}
}

func (s *poisonSource) leave() { s.inUse.Store(false) }

func (s *poisonSource) NextBlock(b *trace.Block) error {
	s.enter()
	defer s.leave()
	s.calls.Add(1)
	if s.next == len(s.events) {
		return io.EOF
	}
	var buf []trace.Event
	if n := len(s.free); n > 0 {
		buf, s.free = s.free[n-1][:0], s.free[:n-1]
	}
	end := min(s.next+fanoutBlockEvents, len(s.events))
	b.Index, b.Events = s.idx, append(buf, s.events[s.next:end]...)
	s.idx++
	s.next = end
	if out := s.outstanding.Add(1); out > s.maxOut.Load() {
		s.maxOut.Store(out)
	}
	return nil
}

func (s *poisonSource) ReleaseBlock(b *trace.Block) {
	s.enter()
	defer s.leave()
	s.released[b.Index]++
	for i := range b.Events {
		b.Events[i] = trace.Event{PC: poisonPC}
	}
	s.free = append(s.free, b.Events)
	b.Events = nil
	s.outstanding.Add(-1)
}

// seqObserver checks the fan-out's delivery contract from the observer
// side: block indices rise by one and the events are exactly the trace's,
// in order, each seen once. delay, when set, runs before each block is
// read, making the observer the slowest reader. The first violation is
// kept in bad; the test goroutine reads it after RunObservers returns.
type seqObserver struct {
	want   []trace.Event
	delay  time.Duration
	blocks uint64
	off    int
	bad    string
}

func (o *seqObserver) Observe(e *trace.Event) { panic("seqObserver takes whole blocks") }

func (o *seqObserver) ObserveBlock(b *trace.Block) {
	if o.delay > 0 {
		time.Sleep(o.delay)
	}
	if o.bad != "" {
		return
	}
	if b.Index != o.blocks {
		o.bad = fmt.Sprintf("block index %d, want %d", b.Index, o.blocks)
		return
	}
	o.blocks++
	for j := range b.Events {
		switch {
		case b.Events[j].PC == poisonPC:
			o.bad = fmt.Sprintf("block %d event %d: read after release (poison)", b.Index, j)
			return
		case o.off >= len(o.want):
			o.bad = fmt.Sprintf("block %d: more events than the trace holds", b.Index)
			return
		case b.Events[j] != o.want[o.off]:
			o.bad = fmt.Sprintf("block %d event %d differs from trace event %d", b.Index, j, o.off)
			return
		}
		o.off++
	}
}

// check reports a violation, or an incomplete stream, after the run.
func (o *seqObserver) check(t *testing.T, name string) {
	t.Helper()
	switch {
	case o.bad != "":
		t.Errorf("%s: %s", name, o.bad)
	case o.off != len(o.want):
		t.Errorf("%s saw %d of %d events", name, o.off, len(o.want))
	}
}

// seqObservers builds n checking observers over events, the last one
// slow.
func seqObservers(events []trace.Event, n int) []*seqObserver {
	obs := make([]*seqObserver, n)
	for i := range obs {
		obs[i] = &seqObserver{want: events}
	}
	obs[n-1].delay = 50 * time.Microsecond
	return obs
}

func asObservers(seqs []*seqObserver) []Observer {
	out := make([]Observer, len(seqs))
	for i, o := range seqs {
		out[i] = o
	}
	return out
}

// TestObserverConcurrentOrderExactlyOnce feeds hundreds of small blocks
// to several checking observers, one of them slow, plus real simulators:
// every observer sees every block in stream order and every event exactly
// once, and the simulators agree with their solo runs.
func TestObserverConcurrentOrderExactlyOnce(t *testing.T) {
	tr := observerTrace(t)
	wantReuse, wantILP, _, _ := soloSims(t, tr)
	seqs := seqObservers(tr.Events, 5)
	reuse := NewReuseSim("gcc", 12)
	ilp := NewSpecSweep("gcc", predictor.KindContext, SweepConfig{})
	obs := append(asObservers(seqs), reuse, ilp)
	if err := RunObservers(&chunkSource{events: tr.Events}, obs...); err != nil {
		t.Fatal(err)
	}
	for i, o := range seqs {
		o.check(t, fmt.Sprintf("observer %d", i))
		if want := numBlocks(len(tr.Events)); o.blocks != want {
			t.Errorf("observer %d saw %d blocks, want %d", i, o.blocks, want)
		}
	}
	if reuse.Stats() != wantReuse {
		t.Error("reuse stats diverge from the solo run under concurrent fan-out")
	}
	if ilp.Stats().ILP != wantILP {
		t.Error("ILP stats diverge from the solo run under concurrent fan-out")
	}
}

// TestObserverReleaseAfterLastReader holds the feeder-owned release
// contract: a block goes back to the source only after its slowest reader
// has returned (a premature release shows up as poison), every block is
// released exactly once, and the source is never entered from two
// goroutines at once.
func TestObserverReleaseAfterLastReader(t *testing.T) {
	tr := observerTrace(t)
	src := newPoisonSource(tr.Events)
	seqs := seqObservers(tr.Events, 4)
	if err := RunObservers(src, asObservers(seqs)...); err != nil {
		t.Fatal(err)
	}
	for i, o := range seqs {
		o.check(t, fmt.Sprintf("observer %d", i))
	}
	if src.overlap.Load() {
		t.Error("NextBlock and ReleaseBlock overlapped: the source was driven from two goroutines")
	}
	if want := numBlocks(len(tr.Events)); uint64(len(src.released)) != want {
		t.Errorf("%d blocks released, want all %d", len(src.released), want)
	}
	for idx, n := range src.released {
		if n != 1 {
			t.Errorf("block %d released %d times", idx, n)
		}
	}
	if out := src.outstanding.Load(); out != 0 {
		t.Errorf("%d blocks never released", out)
	}
}

// gateObserver blocks in its first block until gate closes.
type gateObserver struct {
	gate   chan struct{}
	waited bool
}

func (o *gateObserver) Observe(e *trace.Event) {
	if !o.waited {
		o.waited = true
		<-o.gate
	}
}

// TestObserverWindowBound stalls one observer on its first block and
// checks the feeder stops at the window: it pulls exactly fanoutWindow
// blocks, and delivered-minus-released never exceeds the window over the
// whole run.
func TestObserverWindowBound(t *testing.T) {
	tr := observerTrace(t)
	src := newPoisonSource(tr.Events)
	stall := &gateObserver{gate: make(chan struct{})}
	seqs := seqObservers(tr.Events, 2)
	done := make(chan error, 1)
	go func() { done <- RunObservers(src, append(asObservers(seqs), stall)...) }()

	deadline := time.Now().Add(5 * time.Second)
	for src.calls.Load() < fanoutWindow && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // room for an unbounded feeder to run ahead
	if got := src.calls.Load(); got != fanoutWindow {
		t.Errorf("feeder pulled %d blocks past a stalled observer, want the window %d", got, fanoutWindow)
	}
	close(stall.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := src.maxOut.Load(); got > fanoutWindow {
		t.Errorf("%d blocks outstanding at once, window is %d", got, fanoutWindow)
	}
	for i, o := range seqs {
		o.check(t, fmt.Sprintf("observer %d", i))
	}
}

// waitNoExtraGoroutines polls until the goroutine count returns to the
// baseline (observer goroutines exit asynchronously after their last
// send).
func waitNoExtraGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestObserverNoGoroutineLeak checks every observer goroutine is gone
// when RunObservers returns: after a clean run, after a source error, and
// after the early exit once every observer has panicked — which must stop
// pulling from the source within one window.
func TestObserverNoGoroutineLeak(t *testing.T) {
	tr := observerTrace(t)
	base := runtime.NumGoroutine()

	if err := RunObservers(&chunkSource{events: tr.Events}, asObservers(seqObservers(tr.Events, 3))...); err != nil {
		t.Fatal(err)
	}
	waitNoExtraGoroutines(t, base)

	boom := errors.New("decode bomb")
	err := RunObservers(&errSource{events: tr.Events, err: boom}, asObservers(seqObservers(tr.Events, 3))...)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the source error", err)
	}
	waitNoExtraGoroutines(t, base)

	src := &chunkSource{events: tr.Events}
	bombs := []Observer{&bombObserver{}, &bombObserver{}, &bombObserver{}}
	err = RunObservers(src, bombs...)
	var oe *ObserverError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want *ObserverError", err)
	}
	if src.calls > fanoutWindow+1 {
		t.Errorf("feeder pulled %d blocks after every observer failed on the first", src.calls)
	}
	waitNoExtraGoroutines(t, base)
}
