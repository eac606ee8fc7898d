package fleet

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// writeTrace writes one workload trace as a .dpg file and returns its path.
func writeTrace(t *testing.T, dir, file, workload string, rounds int) string {
	t.Helper()
	w, ok := workloads.ByName(workload)
	if !ok {
		t.Fatalf("unknown workload %q", workload)
	}
	tr, err := w.TraceRounds(rounds, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, file)
	if err := trace.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

// corpusDir builds the standard mixed test corpus: several traces across
// two workloads (so AnalyzeDir's unanimous-name rule blanks the merge).
func corpusDir(t *testing.T) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	paths := []string{
		writeTrace(t, dir, "a-fig1.dpg", "fig1", 6),
		writeTrace(t, dir, "b-gcc.dpg", "gcc", 24),
		writeTrace(t, dir, "c-fig1.dpg", "fig1", 12),
		writeTrace(t, dir, "d-gcc.dpg", "gcc", 12),
		writeTrace(t, dir, "e-fig1.dpg", "fig1", 3),
	}
	return dir, paths
}

// realWorker boots a full dpgd server on an httptest listener and returns
// its base URL.
func realWorker(t *testing.T, mod func(*server.Config)) string {
	t.Helper()
	cfg := server.Config{
		StoreDir:    filepath.Join(t.TempDir(), "store"),
		QueueDepth:  16,
		Workers:     2,
		JobTimeout:  30 * time.Second,
		Speculation: -1,
	}
	if mod != nil {
		mod(&cfg)
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return ts.URL
}

// fastCfg is a Config tuned for tests: tiny backoffs, real sleeps.
func fastCfg(workers ...string) Config {
	return Config{
		Workers:      workers,
		Predictor:    predictor.KindStride,
		RetryBackoff: 2 * time.Millisecond,
		ReadmitAfter: 5 * time.Millisecond,
		TraceTimeout: 30 * time.Second,
	}
}

// encodeLocal analyses dir locally and wire-encodes the aggregate — the
// byte-level reference every distributed run is held to.
func encodeLocal(t *testing.T, dir string) []byte {
	t.Helper()
	res, _, err := core.AnalyzeDir(dir, 2, core.WithKind(predictor.KindStride))
	if err != nil {
		t.Fatal(err)
	}
	data, err := dpg.EncodeResult(res, server.ModelVersion)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// encodeSummary wire-encodes a run's merged aggregate under its model.
func encodeSummary(t *testing.T, s *Summary) []byte {
	t.Helper()
	data, err := dpg.EncodeResult(s.Merged, s.Model)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFleetDifferential is the tentpole contract: a scatter/gather run over
// three real workers produces an aggregate byte-identical — through the
// canonical wire encoding — to core.AnalyzeDir on the same corpus.
func TestFleetDifferential(t *testing.T) {
	dir, _ := corpusDir(t)
	// Heterogeneous pool on purpose: sequential workers and speculative
	// ones at two and four chains must produce interchangeable partials
	// (the model is exact under every execution strategy), so the
	// aggregate cannot depend on which worker analysed which trace.
	cfg := fastCfg(
		realWorker(t, nil),
		realWorker(t, func(c *server.Config) { c.Speculation = 2 }),
		realWorker(t, func(c *server.Config) { c.Speculation = 4 }),
	)

	s, err := RunDir(context.Background(), cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != len(s.Files) || s.Failed != 0 || s.Skipped != 0 {
		t.Fatalf("completed %d failed %d skipped %d of %d", s.Completed, s.Failed, s.Skipped, len(s.Files))
	}
	if s.Model != server.ModelVersion {
		t.Fatalf("model %q, want %q", s.Model, server.ModelVersion)
	}
	got := encodeSummary(t, s)
	want := encodeLocal(t, dir)
	if string(got) != string(want) {
		t.Fatal("distributed aggregate differs from local AnalyzeDir")
	}
	// Work-stealing: with a healthy pool, every worker should have pulled
	// something (5 traces, 3 workers — not guaranteed per-worker, but the
	// total must add up).
	var dispatched uint64
	for _, w := range s.Workers {
		dispatched += w.Succeeded
	}
	if dispatched != uint64(len(s.Files)) {
		t.Fatalf("worker successes sum to %d, want %d", dispatched, len(s.Files))
	}
}

// TestFleetSingleTraceName checks the other Name branch: a single-workload
// corpus keeps the unanimous workload name, matching AnalyzeDir exactly.
func TestFleetSingleTraceName(t *testing.T) {
	dir := t.TempDir()
	writeTrace(t, dir, "only.dpg", "fig1", 8)
	cfg := fastCfg(realWorker(t, nil))

	s, err := RunDir(context.Background(), cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Merged.Name != "fig1" {
		t.Fatalf("merged name %q, want fig1", s.Merged.Name)
	}
	if string(encodeSummary(t, s)) != string(encodeLocal(t, dir)) {
		t.Fatal("single-trace aggregate differs from local")
	}
}

// TestFleetFailover: a worker that always answers 503 gets ejected, and
// every trace still completes via the healthy workers — with the exact
// same bytes as the local run.
func TestFleetFailover(t *testing.T) {
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "degraded", http.StatusServiceUnavailable)
	}))
	defer broken.Close()

	dir, _ := corpusDir(t)
	cfg := fastCfg(realWorker(t, nil), broken.URL, realWorker(t, nil))
	cfg.Retries = 6

	s, err := RunDir(context.Background(), cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != len(s.Files) {
		t.Fatalf("completed %d of %d", s.Completed, len(s.Files))
	}
	if string(encodeSummary(t, s)) != string(encodeLocal(t, dir)) {
		t.Fatal("aggregate with a broken worker differs from local")
	}
	for _, w := range s.Workers {
		if w.Name == broken.URL && w.Succeeded != 0 {
			t.Fatalf("broken worker credited with %d successes", w.Succeeded)
		}
	}
	for i := range s.Files {
		if s.Files[i].Worker == broken.URL {
			t.Fatalf("%s attributed to the broken worker", s.Files[i].Path)
		}
	}
}

// TestFleetEjectReadmit drives the full health cycle against one worker:
// fail past EjectAfter, sit out the ejection, pass the /healthz probe,
// readmit, finish the corpus.
func TestFleetEjectReadmit(t *testing.T) {
	real := realWorker(t, nil)

	var failing atomic.Bool
	failing.Store(true)
	var resultCalls, healthCalls atomic.Int64
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/healthz") {
			healthCalls.Add(1)
			// The probe flips the worker healthy: the first ejection ends
			// in a readmission.
			failing.Store(false)
			w.WriteHeader(http.StatusOK)
			return
		}
		if failing.Load() {
			resultCalls.Add(1)
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		// Forward to the real worker.
		req, err := http.NewRequestWithContext(r.Context(), r.Method, real+r.URL.Path+"?"+r.URL.RawQuery, r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		req.ContentLength = r.ContentLength
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 32<<10)
		for {
			n, rerr := resp.Body.Read(buf)
			if n > 0 {
				w.Write(buf[:n])
			}
			if rerr != nil {
				break
			}
		}
	}))
	defer proxy.Close()

	dir, _ := corpusDir(t)
	cfg := fastCfg(proxy.URL)
	cfg.EjectAfter = 2
	cfg.Retries = 50

	s, err := RunDir(context.Background(), cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Completed != len(s.Files) {
		t.Fatalf("completed %d of %d", s.Completed, len(s.Files))
	}
	if healthCalls.Load() == 0 {
		t.Fatal("worker was never probed: ejection did not happen")
	}
	if s.Workers[0].Ejections == 0 {
		t.Fatal("summary records no ejections")
	}
	if string(encodeSummary(t, s)) != string(encodeLocal(t, dir)) {
		t.Fatal("aggregate after eject/readmit differs from local")
	}
}

// TestFleetWorkersDown: a pool where every worker is beyond saving must
// abort with ErrWorkersDown instead of spinning forever.
func TestFleetWorkersDown(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusServiceUnavailable)
	}))
	defer down.Close()

	dir, _ := corpusDir(t)
	cfg := fastCfg(down.URL)
	cfg.Retries = 1000
	cfg.EjectAfter = 1
	cfg.DeadAfter = 2
	cfg.ReadmitAfter = time.Millisecond

	s, err := RunDir(context.Background(), cfg, dir)
	if !errors.Is(err, ErrWorkersDown) {
		t.Fatalf("err = %v, want ErrWorkersDown", err)
	}
	if s == nil || s.Completed != 0 {
		t.Fatalf("summary: %+v", s)
	}
	if !s.Workers[0].Dead {
		t.Fatal("worker not marked dead")
	}
}

// TestFleetPermanentReject: a corrupt trace fails once, permanently, and
// without poisoning the rest of the corpus.
func TestFleetPermanentReject(t *testing.T) {
	dir, _ := corpusDir(t)
	bad := filepath.Join(dir, "zz-corrupt.dpg")
	if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg(realWorker(t, nil), realWorker(t, nil))

	s, err := RunDir(context.Background(), cfg, dir)
	if err == nil {
		t.Fatal("corrupt trace did not fail the run")
	}
	if s.Failed != 1 || s.Completed != len(s.Files)-1 {
		t.Fatalf("failed %d completed %d of %d", s.Failed, s.Completed, len(s.Files))
	}
	for i := range s.Files {
		o := s.Files[i]
		if o.Path != bad {
			continue
		}
		if o.Err == nil || o.Attempts != 1 {
			t.Fatalf("corrupt trace: attempts %d err %v, want 1 attempt and an error", o.Attempts, o.Err)
		}
	}
	if s.Merged == nil {
		t.Fatal("no partial aggregate over the good traces")
	}
}

// TestFleetModelSkew: partials from different model versions must refuse
// to merge.
func TestFleetModelSkew(t *testing.T) {
	dir := t.TempDir()
	writeTrace(t, dir, "a.dpg", "fig1", 4)
	writeTrace(t, dir, "b.dpg", "fig1", 4)

	res, err := core.AnalyzeFile(filepath.Join(dir, "a.dpg"), core.WithKind(predictor.KindStride))
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	skewed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		model := server.ModelVersion
		if calls.Add(1) > 1 {
			model = "pv9-model-999"
		}
		data, err := dpg.EncodeResult(res, model)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	}))
	defer skewed.Close()

	cfg := fastCfg(skewed.URL)
	cfg.PerWorker = 1 // serialize so the second response is the skewed one

	s, err := RunDir(context.Background(), cfg, dir)
	if !errors.Is(err, ErrModelSkew) {
		t.Fatalf("err = %v, want ErrModelSkew", err)
	}
	if s.Completed != 1 || s.Failed != 1 {
		t.Fatalf("completed %d failed %d", s.Completed, s.Failed)
	}
}

// TestFleetDrain: the drain signal stops dispatch, in-flight work lands,
// the rest is reported skipped under ErrDrained with a partial merge.
func TestFleetDrain(t *testing.T) {
	real := realWorker(t, nil)
	drain := make(chan struct{})
	var served atomic.Int64
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/result") {
			if served.Add(1) == 2 {
				defer close(drain)
			}
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, real+r.URL.Path+"?"+r.URL.RawQuery, r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		req.ContentLength = r.ContentLength
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 32<<10)
		for {
			n, rerr := resp.Body.Read(buf)
			if n > 0 {
				w.Write(buf[:n])
			}
			if rerr != nil {
				break
			}
		}
	}))
	defer gate.Close()

	dir := t.TempDir()
	var paths []string
	for _, f := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		paths = append(paths, writeTrace(t, dir, f+".dpg", "fig1", 4))
	}

	cfg := fastCfg(gate.URL)
	cfg.PerWorker = 1
	cfg.Drain = drain

	s, err := Run(context.Background(), cfg, paths)
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("err = %v, want ErrDrained", err)
	}
	if !s.Drained {
		t.Fatal("summary not marked drained")
	}
	if s.Completed < 2 {
		t.Fatalf("completed %d, want at least the 2 pre-drain traces", s.Completed)
	}
	if s.Skipped == 0 {
		t.Fatal("nothing skipped by the drain")
	}
	if s.Merged == nil {
		t.Fatal("drained run lost its partial merge")
	}
	for i := range s.Files {
		o := s.Files[i]
		if o.Skipped && !errors.Is(o.Err, ErrDrained) {
			t.Fatalf("%s skipped with %v, want ErrDrained", o.Path, o.Err)
		}
	}
}

// TestFleetCancel: cancelling the run context resolves every trace instead
// of hanging.
func TestFleetCancel(t *testing.T) {
	release := make(chan struct{})
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Swallow the upload, then hold the response until the test ends
		// (an unread body masks client disconnects from the server, so
		// waiting on r.Context() here would leak the handler).
		io.Copy(io.Discard, r.Body)
		<-release
	}))
	defer stuck.Close()
	defer close(release)

	_, paths := corpusDir(t)
	cfg := fastCfg(stuck.URL)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	var s *Summary
	var err error
	go func() {
		defer close(done)
		s, err = Run(ctx, cfg, paths)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run did not return")
	}
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if s.Completed != 0 {
		t.Fatalf("completed %d traces against a stuck worker", s.Completed)
	}
}

// TestFleetConfigErrors pins the argument taxonomy.
func TestFleetConfigErrors(t *testing.T) {
	if _, err := Run(context.Background(), Config{}, []string{"x.dpg"}); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("no workers: %v", err)
	}
	if _, err := Run(context.Background(), fastCfg("http://127.0.0.1:1"), nil); !errors.Is(err, ErrNoTraces) {
		t.Fatalf("no traces: %v", err)
	}
	if _, err := RunDir(context.Background(), fastCfg("http://127.0.0.1:1"), t.TempDir()); !errors.Is(err, ErrNoTraces) {
		t.Fatalf("empty dir: %v", err)
	}
	if _, err := RunDir(context.Background(), fastCfg("http://127.0.0.1:1"), filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing dir did not error")
	}
}
