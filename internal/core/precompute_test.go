package core

import (
	"bytes"
	"fmt"
	"io"
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

// heldTraces reports how many traces the suite has cached.
func heldTraces(s *Suite) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.traces)
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
				if held := heldTraces(s); held != 0 {
					t.Errorf("%d traces still cached after RunAll", held)
				}
			})
		}
	}
}

// TestFusedDecodeOnce holds the suite to one decode of each trace file
// (the footer probe, which reads only frame headers, is not a decode)
// when every workload is read from a trace directory. RunAll, which
// precomputes every model run and experiment product, reads each file
// exactly once and generates nothing; run on demand, one experiment at a
// time, each experiment reads each file at most once.
func TestFusedDecodeOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure set in -short mode")
	}
	const scale = 0.02
	dir := t.TempDir()
	var paths []string
	for _, name := range NewSuite(SuiteConfig{}).suiteNames() {
		p, _ := writeScaledTrace(t, dir, name, scale)
		paths = append(paths, p)
	}
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("precompute/parallel=%d", par), func(t *testing.T) {
			snapshot := installDecodeCounter(t)
			var calls atomic.Int32
			s := NewSuite(SuiteConfig{
				Scale: scale, Parallel: par,
				TraceFile: TraceDir(dir), TraceSource: countingSource(&calls),
			})
			if err := s.RunAll(io.Discard); err != nil {
				t.Fatal(err)
			}
			counts := snapshot()
			for _, p := range paths {
				if counts[p] != 1 {
					t.Errorf("RunAll read %s %d times, want exactly 1", p, counts[p])
				}
			}
			if n := calls.Load(); n != 0 {
				t.Errorf("RunAll generated %d traces with every file present", n)
			}
			if held := heldTraces(s); held != 0 {
				t.Errorf("%d traces still cached after RunAll", held)
			}
		})
	}
	t.Run("on-demand", func(t *testing.T) {
		var calls atomic.Int32
		s := NewSuite(SuiteConfig{
			Scale: scale, Parallel: 4,
			TraceFile: TraceDir(dir), TraceSource: countingSource(&calls),
		})
		for _, id := range ExperimentIDs() {
			snapshot := installDecodeCounter(t)
			if err := s.Run(id, io.Discard); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			for p, n := range snapshot() {
				if n > 1 {
					t.Errorf("%s read %s %d times, want at most 1", id, p, n)
				}
			}
		}
		if n := calls.Load(); n != 0 {
			t.Errorf("on-demand runs generated %d traces with every file present", n)
		}
	})
}

// TestSuiteSingleExperimentLoadsEachTraceOnce runs each experiment alone,
// on demand, and checks that it generates every workload's trace it reads
// exactly once, while the suite never holds more than one trace.
func TestSuiteSingleExperimentLoadsEachTraceOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("every experiment in -short mode")
	}
	for _, id := range ExperimentIDs() {
		t.Run(id, func(t *testing.T) {
			calls := map[string]int{}
			var s *Suite
			s = NewSuite(SuiteConfig{Scale: 0.02, TraceSource: func(name string, rounds int, seed uint64) (*trace.Trace, error) {
				if held := heldTraces(s); held > 1 {
					t.Errorf("loading %s: %d traces cached", name, held)
				}
				calls[name]++
				w, _ := workloads.ByName(name)
				return w.TraceRounds(rounds, seed)
			}})
			if err := s.Run(id, io.Discard); err != nil {
				t.Fatal(err)
			}
			if len(calls) == 0 {
				t.Fatal("no trace generated")
			}
			for name, n := range calls {
				if n != 1 {
					t.Errorf("%s: trace generated %d times, want 1", name, n)
				}
			}
			if held := heldTraces(s); held > 1 {
				t.Errorf("%d traces cached after the experiment", held)
			}
		})
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
