package analysis

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// This file is the observer fan-out engine: the piece that turns "five
// experiments, five decodes" into "five experiments, one decode". Every
// streaming experiment in this package (ReuseSim, ConfidenceSim,
// SpecSweep — and, in internal/core, the model pipeline itself) satisfies
// Observer; RunObservers registers any set of them onto one shared decode
// of a trace and runs them concurrently, one goroutine per observer, each
// fed the decoded blocks in stream order. Memory stays at the source's own
// ceiling — O(block · workers) for trace.Reader — plus a fixed
// window of in-flight blocks, no matter how many observers ride along.
//
// Isolation contract: a panicking observer is caught, converted to a typed
// *ObserverError, and removed from the fan-out; the surviving observers
// keep receiving every block and still get their Finish call. Sibling
// results are never corrupted by one observer's failure, because observers
// only read the shared events and share no mutable state.

// Observer consumes a stream of decoded events. Events arrive in stream
// order. The *trace.Event pointers alias a shared, reader-owned buffer
// that other observers read at the same time: observers must treat them
// as read-only and must not retain them past the return of Observe. Under
// RunObservers each observer runs on its own goroutine, so two observers
// of one run must not share mutable state (predictor tables, counters).
type Observer interface {
	Observe(e *trace.Event)
}

// BlockObserver is an Observer that prefers whole decoded blocks — the
// fast path for consumers with their own batch interface. The same
// aliasing rules apply to b and b.Events: read-only, valid only until
// ObserveBlock returns.
type BlockObserver interface {
	Observer
	ObserveBlock(b *trace.Block)
}

// Finisher is an Observer with an end-of-stream hook. RunObservers calls
// Finish exactly once, after the source has returned a clean io.EOF —
// never after a source error, and never on an observer that has already
// failed.
type Finisher interface {
	Finish() error
}

// BlockSource is where RunObservers pulls decoded blocks from. The
// contract is trace.(*Reader).NextBlock's: io.EOF ends the stream
// cleanly, any other error is a decode failure. Sources that additionally
// implement ReleaseBlock(*trace.Block) (as trace.Reader does) get
// each block handed back once every observer has returned from it. Only
// the goroutine that called RunObservers calls NextBlock and ReleaseBlock,
// so a source needs no locking of its own.
type BlockSource interface {
	NextBlock(b *trace.Block) error
}

// blockReleaser is the optional recycling half of BlockSource.
type blockReleaser interface {
	ReleaseBlock(b *trace.Block)
}

// ObserverError reports one observer's failure — a panic during Observe /
// ObserveBlock, or an error from Finish — identified by its position in
// the RunObservers argument list. Match with errors.As.
type ObserverError struct {
	// Index is the observer's position in the RunObservers argument list.
	Index int
	// Kind is the observer's concrete Go type.
	Kind string
	// Panic is the recovered panic value, nil if the failure was a Finish
	// error.
	Panic any
	// Err is the error Finish returned, nil if the failure was a panic.
	Err error
}

func (e *ObserverError) Error() string {
	if e.Panic != nil {
		return fmt.Sprintf("analysis: observer %d (%s) panicked: %v", e.Index, e.Kind, e.Panic)
	}
	return fmt.Sprintf("analysis: observer %d (%s): %v", e.Index, e.Kind, e.Err)
}

// Unwrap exposes a Finish error for errors.Is matching; panics have
// nothing to unwrap.
func (e *ObserverError) Unwrap() error { return e.Err }

// fanoutWindow caps the blocks in flight between the source and the
// slowest observer. It bounds RunObservers' memory at O(fanoutWindow ·
// block) on top of the source's own ceiling, and is deep enough that a
// briefly slow observer does not stall its siblings.
const fanoutWindow = 4

// fanSlot is one in-flight block. pending counts the observers that have
// not yet returned from it; only the feeding goroutine touches it.
type fanSlot struct {
	b       trace.Block
	pending int
}

// RunObservers drains src, delivering every decoded block to every
// observer — one decode serving the whole set. Each observer runs on its
// own goroutine and receives the blocks in stream order through its own
// FIFO, so an observer is never called concurrently with itself while
// different observers run concurrently. At most fanoutWindow blocks are
// in flight between the source and the slowest observer.
//
// The calling goroutine is the only one that talks to src: it alone calls
// NextBlock and ReleaseBlock, and it hands a block back to the source only
// after every observer has returned from it. Observers therefore need no
// locking against the source, but they must not share mutable state with
// each other.
//
// On a clean end of stream, once every observer goroutine has exited,
// each surviving Finisher's Finish runs on the calling goroutine in
// argument order; the returned error joins every observer failure (each a
// *ObserverError), or is nil if all observers survived. A panicking
// observer keeps draining its FIFO, so it never stalls the others.
//
// A source error stops the feeding: the blocks already handed out are
// still delivered, then Finish is NOT called (the observers' accumulated
// state reflects an incomplete stream and it is the caller's decision
// whether partial results mean anything), and the source error is
// returned joined with any observer failures.
func RunObservers(src BlockSource, obs ...Observer) error {
	errs := make([]error, len(obs))
	if err := fanOut(src, obs, errs); err != nil {
		return joinErrs(append([]error{err}, errs...))
	}
	for i, o := range obs {
		if errs[i] != nil {
			continue
		}
		if f, ok := o.(Finisher); ok {
			errs[i] = finishObserver(i, o, f)
		}
	}
	return joinErrs(errs)
}

// fanOut is RunObservers' delivery phase. It feeds src's blocks to one
// goroutine per observer until io.EOF, a source error, or every observer
// has failed, and returns only after all of those goroutines have exited
// and every delivered block has gone back to the source. errs[i] receives
// observer i's delivery failure. The result is the source error, nil on a
// clean end of stream or when no observer is left to feed.
func fanOut(src BlockSource, obs []Observer, errs []error) error {
	if len(obs) == 0 {
		return nil
	}
	var live atomic.Int64
	live.Store(int64(len(obs)))
	// Buffered for every (slot, observer) pair, so an observer never
	// blocks handing a block back.
	back := make(chan *fanSlot, fanoutWindow*len(obs))
	ins := make([]chan *fanSlot, len(obs))
	var wg sync.WaitGroup
	for i, o := range obs {
		// Deep enough for every slot, so the feeder never blocks handing
		// out a block: it waits only for a free slot.
		in := make(chan *fanSlot, fanoutWindow)
		ins[i] = in
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range in {
				if errs[i] == nil {
					if errs[i] = observeBlock(i, o, &s.b); errs[i] != nil {
						live.Add(-1)
					}
				}
				back <- s
			}
		}()
	}

	rel, canRelease := src.(blockReleaser)
	free := make([]*fanSlot, fanoutWindow)
	for i := range free {
		free[i] = new(fanSlot)
	}
	// retire records one observer's return from s, handing the block back
	// to the source after the last.
	retire := func(s *fanSlot) {
		if s.pending--; s.pending > 0 {
			return
		}
		if canRelease {
			rel.ReleaseBlock(&s.b)
		}
		free = append(free, s)
	}
	defer func() {
		for _, in := range ins {
			close(in)
		}
		wg.Wait()
		for len(back) > 0 {
			retire(<-back)
		}
	}()

	for live.Load() > 0 {
		// Retire what has come back; wait only when the window is full.
		for len(free) == 0 || len(back) > 0 {
			retire(<-back)
		}
		s := free[len(free)-1]
		free = free[:len(free)-1]
		if err := src.NextBlock(&s.b); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		s.pending = len(obs)
		for _, in := range ins {
			in <- s // never blocks: at most fanoutWindow slots exist
		}
	}
	return nil
}

// observeBlock delivers one block to one observer, converting a panic into
// a typed error so a crashing observer cannot take down its siblings.
func observeBlock(i int, o Observer, b *trace.Block) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &ObserverError{Index: i, Kind: fmt.Sprintf("%T", o), Panic: p}
		}
	}()
	if bo, ok := o.(BlockObserver); ok {
		bo.ObserveBlock(b)
		return nil
	}
	for j := range b.Events {
		o.Observe(&b.Events[j])
	}
	return nil
}

// finishObserver runs one observer's Finish under the same panic isolation
// as delivery.
func finishObserver(i int, o Observer, f Finisher) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &ObserverError{Index: i, Kind: fmt.Sprintf("%T", o), Panic: p}
		}
	}()
	if ferr := f.Finish(); ferr != nil {
		return &ObserverError{Index: i, Kind: fmt.Sprintf("%T", o), Err: ferr}
	}
	return nil
}

// joinErrs collapses a slice of possibly-nil errors: nil when none fired,
// the error itself when exactly one did, errors.Join otherwise.
func joinErrs(errs []error) error {
	var fired []error
	for _, err := range errs {
		if err != nil {
			fired = append(fired, err)
		}
	}
	switch len(fired) {
	case 0:
		return nil
	case 1:
		return fired[0]
	}
	return errors.Join(fired...)
}

// traceSource adapts an in-memory trace to BlockSource: one block holding
// the whole event slice, then io.EOF. It has no ReleaseBlock — the events
// belong to the trace.
type traceSource struct {
	t    *trace.Trace
	done bool
}

func (s *traceSource) NextBlock(b *trace.Block) error {
	if s.done {
		return io.EOF
	}
	s.done = true
	b.Index = 0
	b.Events = s.t.Events
	return nil
}

// ObserveTrace runs the observer set over an in-memory trace, with the
// same delivery, isolation, and Finish contract as RunObservers.
func ObserveTrace(t *trace.Trace, obs ...Observer) error {
	return RunObservers(&traceSource{t: t}, obs...)
}
