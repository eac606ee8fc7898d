package core

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// countingSource generates workload traces like the suite does, counting
// every call.
func countingSource(calls *atomic.Int32) func(string, int, uint64) (*trace.Trace, error) {
	return func(name string, rounds int, seed uint64) (*trace.Trace, error) {
		calls.Add(1)
		w, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		return w.TraceRounds(rounds, seed)
	}
}

// TestSuiteGeneratesEachTraceOnce checks that RunAll, which always
// precomputes, generates every workload's trace exactly once at every
// parallelism — the model runs and every experiment product share it —
// and releases all of them afterwards.
func TestSuiteGeneratesEachTraceOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure set in -short mode")
	}
	for _, paper := range []bool{false, true} {
		for _, par := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("paper=%v/parallel=%d", paper, par), func(t *testing.T) {
				var calls atomic.Int32
				s := NewSuite(SuiteConfig{
					Scale: 0.02, Parallel: par, PaperCorpus: paper,
					TraceSource: countingSource(&calls),
				})
				var out bytes.Buffer
				if err := s.RunAll(&out); err != nil {
					t.Fatal(err)
				}
				if got, want := int(calls.Load()), len(s.suiteNames()); got != want {
					t.Errorf("RunAll generated %d traces for %d workloads", got, want)
				}
				s.mu.Lock()
				held := len(s.traces)
				s.mu.Unlock()
				if held != 0 {
					t.Errorf("%d traces still cached after RunAll", held)
				}
			})
		}
	}
}

// TestSuitePrecomputeParity holds the precomputed RunAll byte-identical to
// running every experiment on demand with Run, which is the schedule a
// single-experiment run takes.
func TestSuitePrecomputeParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure set in -short mode")
	}
	for _, paper := range []bool{false, true} {
		var lazy, pre bytes.Buffer
		onDemand := NewSuite(SuiteConfig{Scale: 0.02, Parallel: 1, PaperCorpus: paper})
		for _, id := range ExperimentIDs() {
			if err := onDemand.Run(id, &lazy); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
		}
		if err := NewSuite(SuiteConfig{Scale: 0.02, Parallel: 4, PaperCorpus: paper}).RunAll(&pre); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lazy.Bytes(), pre.Bytes()) {
			t.Errorf("paper=%v: precomputed RunAll output (%d bytes) differs from the lazy one (%d bytes)",
				paper, pre.Len(), lazy.Len())
		}
	}
}

// TestSuitePrecomputeFusedOneAtATime checks that Precompute over a trace
// directory runs the fused passes one workload at a time, even with
// workers to spare: each pass already runs its observers on every core,
// and two overlapping passes would double peak memory.
func TestSuitePrecomputeFusedOneAtATime(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus in -short mode")
	}
	const scale = 0.02
	dir := t.TempDir()
	s := NewSuite(SuiteConfig{Scale: scale, Parallel: 8, TraceFile: TraceDir(dir)})
	for _, name := range s.suiteNames() {
		writeScaledTrace(t, dir, name, scale)
	}
	var (
		mu                    sync.Mutex
		inFlight, peak, total int
	)
	decodeHook = func(string) func() {
		mu.Lock()
		defer mu.Unlock()
		inFlight++
		total++
		peak = max(peak, inFlight)
		return func() {
			mu.Lock()
			inFlight--
			mu.Unlock()
		}
	}
	t.Cleanup(func() { decodeHook = nil })

	if err := s.Precompute(); err != nil {
		t.Fatal(err)
	}
	if peak != 1 {
		t.Errorf("%d fused passes in flight at once, want 1", peak)
	}
	if want := len(s.suiteNames()); total != want {
		t.Errorf("Precompute ran %d fused passes for %d workloads", total, want)
	}
}
