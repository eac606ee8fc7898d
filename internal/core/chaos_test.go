package core

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
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
	// up front, and its trace released by loading another workload's, the
	// first trace load RunAll makes for it comes from one of its product
	// jobs.
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
	if _, err := s.Result(allNames()[1], predictor.KindLast); err != nil {
		t.Fatal(err)
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

// TestSuiteTraceDirDamage reads a trace directory holding one truncated
// file and one with a flipped payload byte: Run and Precompute fail with
// the typed taxonomy and the damaged file's path instead of panicking or
// using a partial trace, and once the files are repaired the same suite
// succeeds, since a failed load is never cached.
func TestSuiteTraceDirDamage(t *testing.T) {
	const scale = 0.02
	dir := t.TempDir()
	s := NewSuite(SuiteConfig{Scale: scale, Parallel: 2, PaperCorpus: true, TraceFile: TraceDir(dir)})
	for _, name := range s.suiteNames() {
		writeScaledTrace(t, dir, name, scale)
	}
	damaged := map[string][]byte{} // path -> intact bytes
	for name, damage := range map[string]func([]byte) []byte{
		"com": func(b []byte) []byte { return b[:len(b)/2] },
		"gcc": func(b []byte) []byte { b[len(b)/2] ^= 0xFF; return b },
	} {
		path := filepath.Join(dir, name+".dpg")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		damaged[path] = bytes.Clone(data)
		if err := os.WriteFile(path, damage(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	check := func(label string, err error, paths ...string) {
		t.Helper()
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrMalformedEvent) {
			t.Fatalf("%s: err = %v, want a typed trace error", label, err)
		}
		for _, p := range paths {
			if strings.Contains(err.Error(), p) {
				return
			}
		}
		t.Errorf("%s: err = %v, want one naming %v", label, err, paths)
	}
	com, gcc := filepath.Join(dir, "com.dpg"), filepath.Join(dir, "gcc.dpg")
	check("fig11 (truncated com)", s.Run("fig11", io.Discard), com)
	check("fig10 (flipped gcc)", s.Run("fig10", io.Discard), gcc)
	check("Precompute", s.Precompute(), com, gcc)
	assertCacheConsistent(t, s)

	for path, data := range damaged {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"fig10", "fig11"} {
		if err := s.Run(id, io.Discard); err != nil {
			t.Fatalf("%s after repair: %v", id, err)
		}
	}
	if err := s.Precompute(); err != nil {
		t.Fatalf("Precompute after repair: %v", err)
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
		// (the same decoder at any worker count).
		_, want, err := trace.ReadFileLenient(path)
		if err != nil {
			t.Fatalf("%s: lenient read: %v", path, err)
		}
		for _, workers := range []int{1, 4} {
			var got trace.Stats
			if _, err := AnalyzeFile(path,
				WithLenientTrace(), WithTraceStats(&got), WithWorkers(workers),
				WithKind(predictor.KindLast)); err != nil {
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
