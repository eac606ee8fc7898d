package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// chaosSource builds a TraceSource that serialises each workload trace
// and decodes it back — injecting an I/O fault mid-decode on the first
// load of the target workload, exactly the failure a flaky filesystem
// would produce inside Precompute.
func chaosSource(t *testing.T, target string, boom error, failures *atomic.Int32) func(string, int, uint64) (*trace.Trace, error) {
	t.Helper()
	return func(name string, rounds int, seed uint64) (*trace.Trace, error) {
		w, ok := workloads.ByName(name)
		if !ok {
			return nil, errors.New("unknown workload " + name)
		}
		tr, err := w.TraceRounds(rounds, seed)
		if err != nil {
			return nil, err
		}
		if name != target {
			return tr, nil
		}
		var buf bytes.Buffer
		if err := trace.WriteAll(&buf, tr); err != nil {
			return nil, err
		}
		if failures.Add(-1) >= 0 {
			return trace.ReadAll(faultinject.ErrAfter(bytes.NewReader(buf.Bytes()), int64(buf.Len()/2), boom))
		}
		got, err := trace.ReadAll(bytes.NewReader(buf.Bytes()))
		return got, err
	}
}

// assertCacheConsistent verifies the suite holds no failed entries: every
// cached trace, result and experiment product must be a success (errors
// are evicted, never memoised).
func assertCacheConsistent(t *testing.T, s *Suite) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, te := range s.traces {
		if te != nil && te.err != nil {
			t.Errorf("stale failed trace entry cached for %q: %v", name, te.err)
		}
	}
	for key, re := range s.results {
		if re == nil {
			t.Errorf("nil result entry cached for %q", key)
			continue
		}
		if re.err != nil {
			t.Errorf("stale failed result entry cached for %q: %v", key, re.err)
		}
		if re.err == nil && re.res == nil {
			t.Errorf("empty result entry cached for %q", key)
		}
	}
	for key, pe := range s.products {
		select {
		case <-pe.done:
		default:
			t.Errorf("product %q still in flight", key)
			continue
		}
		if pe.err != nil {
			t.Errorf("stale failed product entry cached for %q: %v", key, pe.err)
		}
	}
}

// TestSuiteChaosPrecompute fails a workload trace load mid-Precompute via
// fault injection and asserts the error path leaves the cache consistent:
// the failure surfaces, nothing stale is cached, and a second Precompute
// succeeds end to end. It then injects the fault into an experiment
// product job and asserts the same of RunAll, plus that no trace stays
// cached.
func TestSuiteChaosPrecompute(t *testing.T) {
	if testing.Short() {
		t.Skip("full precompute in -short mode")
	}
	target := allNames()[0]
	boom := errors.New("chaos: injected trace failure")
	var failures atomic.Int32
	failures.Store(1)
	s := NewSuite(SuiteConfig{
		Scale:       0.03,
		Parallel:    4,
		TraceSource: chaosSource(t, target, boom, &failures),
	})

	if err := s.Precompute(); !errors.Is(err, boom) {
		t.Fatalf("first Precompute: err = %v, want the injected fault", err)
	}
	assertCacheConsistent(t, s)

	if err := s.Precompute(); err != nil {
		t.Fatalf("second Precompute after transient fault: %v", err)
	}
	assertCacheConsistent(t, s)
	for _, k := range predictor.Kinds {
		if _, err := s.Result(target, k); err != nil {
			t.Fatalf("Result(%s, %s) after recovery: %v", target, k, err)
		}
	}

	// A fault inside a product job: with the target's model runs memoised
	// up front, the first trace load RunAll makes for it comes from one of
	// its product jobs.
	s = NewSuite(SuiteConfig{
		Scale:       0.03,
		Parallel:    4,
		TraceSource: chaosSource(t, target, boom, &failures),
	})
	for _, k := range s.suiteKinds() {
		if _, err := s.Result(target, k); err != nil {
			t.Fatalf("Result(%s, %s): %v", target, k, err)
		}
	}
	failures.Store(1)
	var out bytes.Buffer
	if err := s.RunAll(&out); !errors.Is(err, boom) {
		t.Fatalf("first RunAll: err = %v, want the injected fault", err)
	}
	assertCacheConsistent(t, s)
	assertNoTraces := func() {
		t.Helper()
		s.mu.Lock()
		defer s.mu.Unlock()
		if len(s.traces) != 0 {
			t.Errorf("%d traces still cached", len(s.traces))
		}
	}
	assertNoTraces()
	missing := 0
	s.mu.Lock()
	for _, pj := range s.productJobs(target) {
		if s.products[pj.key] == nil {
			missing++
		}
	}
	s.mu.Unlock()
	if missing == 0 {
		t.Fatal("every product of the faulted workload was memoised")
	}

	out.Reset()
	if err := s.RunAll(&out); err != nil {
		t.Fatalf("second RunAll after transient fault: %v", err)
	}
	assertCacheConsistent(t, s)
	assertNoTraces()
}

// TestSuiteResultRetriesAfterFailure is the single-workload version of the
// chaos test (runs in -short mode): a failed Result is not memoised, and
// the identical call succeeds once the fault clears.
func TestSuiteResultRetriesAfterFailure(t *testing.T) {
	target := "fig1"
	boom := errors.New("chaos: injected trace failure")
	var failures atomic.Int32
	failures.Store(1)
	s := NewSuite(SuiteConfig{
		Scale:       0.05,
		TraceSource: chaosSource(t, target, boom, &failures),
	})

	if _, err := s.Result(target, predictor.KindLast); !errors.Is(err, boom) {
		t.Fatalf("first Result: err = %v, want the injected fault", err)
	}
	assertCacheConsistent(t, s)
	s.mu.Lock()
	_, traceCached := s.traces[target]
	_, resultCached := s.results[target+"/"+predictor.KindLast.String()]
	s.mu.Unlock()
	if traceCached || resultCached {
		t.Fatalf("failed entries left in cache: trace=%v result=%v", traceCached, resultCached)
	}

	r, err := s.Result(target, predictor.KindLast)
	if err != nil {
		t.Fatalf("retry after transient fault: %v", err)
	}
	if r == nil || r.Nodes == 0 {
		t.Fatal("retry produced an empty result")
	}
	assertCacheConsistent(t, s)
}

// TestAnalyzeFileStatsParity asserts the stats AnalyzeFile surfaces match
// the corruption summary dpgrun -strict=false computes (both wrap the
// same lenient decode), on an intact file and on a damaged one — and that
// the parallel decode path reports identical stats.
func TestAnalyzeFileStatsParity(t *testing.T) {
	w, _ := workloads.ByName("fig1")
	tr, err := w.TraceRounds(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	intact := filepath.Join(dir, "intact.dpg")
	// Small blocks so damage costs one block, not the whole stream.
	if err := trace.WriteFile(intact, tr, trace.BlockEvents(16)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(intact)
	if err != nil {
		t.Fatal(err)
	}
	damaged := filepath.Join(dir, "damaged.dpg")
	bad := append([]byte(nil), data...)
	mid := bytes.LastIndex(bad[:len(bad)*2/3], []byte("BLK2")) + 12
	bad[mid] ^= 0xFF
	if err := os.WriteFile(damaged, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{intact, damaged} {
		// The summary dpgrun -strict=false prints comes from ReadFileLenient
		// (via the parallel reader at any worker count — proven equivalent).
		_, want, err := trace.ReadFileLenient(path)
		if err != nil {
			t.Fatalf("%s: lenient read: %v", path, err)
		}
		for _, workers := range []int{1, 4} {
			var got trace.Stats
			if _, err := AnalyzeFile(path,
				WithLenientTrace(), WithTraceStats(&got), WithWorkers(workers),
				WithKind(predictor.KindLast), WithoutPaths()); err != nil {
				t.Fatalf("%s (workers=%d): AnalyzeFile: %v", path, workers, err)
			}
			if got != want {
				t.Errorf("%s (workers=%d): stats diverge:\n  AnalyzeFile: %+v\n  dpgrun path: %+v",
					path, workers, got, want)
			}
		}
	}
}

// TestAnalyzeFileParallelMatchesSequential checks WithWorkers changes only
// throughput, not results.
func TestAnalyzeFileParallelMatchesSequential(t *testing.T) {
	w, _ := workloads.ByName("fig1")
	tr, err := w.TraceRounds(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.dpg")
	if err := trace.WriteFile(path, tr, trace.BlockEvents(16)); err != nil {
		t.Fatal(err)
	}
	seq, err := AnalyzeFile(path, WithKind(predictor.KindStride))
	if err != nil {
		t.Fatal(err)
	}
	par, err := AnalyzeFile(path, WithKind(predictor.KindStride), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if seq.NodeCount != par.NodeCount || seq.ArcCount != par.ArcCount ||
		seq.Path != par.Path || seq.Seq != par.Seq || seq.Branch != par.Branch {
		t.Error("parallel-decode analysis diverges from sequential")
	}
}
