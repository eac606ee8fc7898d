package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// waitNoExtraGoroutines polls until the goroutine count returns to the
// baseline; on timeout it dumps every live stack.
func waitNoExtraGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaosStalledClient checks an upload that goes quiet mid-stream and
// then resumes still succeeds — slow clients are not failures.
func TestChaosStalledClient(t *testing.T) {
	_, ts := testServer(t, nil)
	data := traceBytes(t, "fig1", 5)
	body := faultinject.Stall(bytes.NewReader(data), int64(len(data)/2), 150*time.Millisecond)
	status, got, _ := upload(t, ts, "", body)
	if status != http.StatusOK {
		t.Fatalf("stalled upload: status %d", status)
	}
	if got.SizeBytes != int64(len(data)) {
		t.Errorf("stalled upload spooled %d bytes, want %d", got.SizeBytes, len(data))
	}
}

// TestChaosFlakyStore checks transient trace-store I/O is absorbed by the
// retry-with-backoff loop: the job succeeds and the retry counter moves.
func TestChaosFlakyStore(t *testing.T) {
	s, ts := testServer(t, nil)
	// First two spool-probe opens fail with a transient error, then the
	// store heals. No real time passes: the backoff sleep is stubbed.
	transient := errors.New("injected transient store fault")
	var mu sync.Mutex
	failures := 2
	s.store.sleep = func(time.Duration) {}
	realOpen := s.store.openFile
	s.store.openFile = func(p string) (io.ReadCloser, error) {
		mu.Lock()
		defer mu.Unlock()
		if failures > 0 {
			failures--
			return nil, transient
		}
		return realOpen(p)
	}

	status, _, _ := upload(t, ts, "", bytes.NewReader(traceBytes(t, "fig1", 5)))
	if status != http.StatusOK {
		t.Fatalf("upload against flaky store: status %d", status)
	}
	if n := s.Metrics().StoreRetries(); n < 2 {
		t.Errorf("store retries %d, want >= 2", n)
	}
}

// TestChaosFlakyStoreExhausted checks a store that stays down past the
// retry budget surfaces as a typed store failure, not a hang or a panic.
func TestChaosFlakyStoreExhausted(t *testing.T) {
	s, ts := testServer(t, func(c *Config) { c.StoreAttempts = 3 })
	s.store.sleep = func(time.Duration) {}
	s.store.openFile = func(string) (io.ReadCloser, error) {
		return nil, errors.New("store is gone")
	}
	status, _, fail := upload(t, ts, "", bytes.NewReader(traceBytes(t, "fig1", 5)))
	if status != http.StatusInternalServerError || fail.Kind != KindStore {
		t.Fatalf("status %d kind %q, want 500/%q", status, fail.Kind, KindStore)
	}
}

// TestChaosFlakyReaderRetryLoop drives the store's retry loop directly
// with faultinject.FlakyReader semantics at the open seam.
func TestChaosFlakyReaderRetryLoop(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.dpg")
	if err := os.WriteFile(path, []byte("blkc-like-bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	var retries int
	st, err := newStore(dir, 4, time.Millisecond, func(error) { retries++ })
	if err != nil {
		t.Fatal(err)
	}
	st.sleep = func(time.Duration) {}
	transient := errors.New("transient")
	flaky := faultinject.FlakyReader(strings.NewReader("ignored"), 2, transient)
	st.openFile = func(p string) (io.ReadCloser, error) {
		// FlakyReader fails its first N reads; map that onto open attempts.
		if _, err := flaky.Read(make([]byte, 1)); err != nil {
			return nil, err
		}
		return os.Open(p)
	}
	if err := st.Probe(context.Background(), path); err != nil {
		t.Fatalf("probe through flaky opens: %v", err)
	}
	if retries != 2 {
		t.Errorf("retries %d, want 2", retries)
	}
}

// TestChaosClientDisconnectMidUpload checks a client that dies mid-upload
// leaves nothing behind: no job, no temp spool, no goroutines.
func TestChaosClientDisconnectMidUpload(t *testing.T) {
	base := runtime.NumGoroutine()
	s, ts := testServer(t, nil)
	data := traceBytes(t, "fig1", 10)

	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/analyze", pr)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	// Feed half the trace, then vanish.
	if _, err := pw.Write(data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	cancel()
	pw.CloseWithError(io.ErrClosedPipe)
	if err := <-errc; err == nil {
		t.Fatal("request succeeded despite disconnect")
	}

	// The half-spooled temp file must be cleaned up and no job admitted.
	waitFor(t, "spool cleanup", func() bool {
		ents, err := os.ReadDir(s.cfg.StoreDir)
		if err != nil {
			t.Fatal(err)
		}
		return len(ents) == 0
	})
	if n := s.Metrics().Computations(); n != 0 {
		t.Errorf("disconnected upload reached the analyzer (%d computations)", n)
	}

	// Tear the server down and verify nothing leaked.
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("drain after disconnect: %v", err)
	}
	waitNoExtraGoroutines(t, base)
}

// TestChaosShutdownMidJobLeakFree checks a forced drain with a job stuck
// in the decode path reclaims every goroutine.
func TestChaosShutdownMidJobLeakFree(t *testing.T) {
	base := runtime.NumGoroutine()
	s, ts := testServer(t, func(c *Config) {
		c.Workers = 1
	})
	gate := make(chan struct{})
	s.beforeJob = func(ctx context.Context) {
		close(gate)
		<-ctx.Done() // hold the job until the drain forces cancellation
	}

	done := make(chan int, 1)
	go func() { st, _, _ := upload(t, ts, "", bytes.NewReader(traceBytes(t, "fig1", 10))); done <- st }()
	<-gate

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("forced drain reported clean")
	}
	if st := <-done; st == http.StatusOK {
		t.Error("stuck job reported success after forced cancellation")
	}
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	waitNoExtraGoroutines(t, base)
}

// TestChaosOverloadBurst slams the server with more concurrent uploads
// than queue + workers can hold and checks every request gets a definite
// answer (200, or 429 with Retry-After), with no goroutine growth after.
func TestChaosOverloadBurst(t *testing.T) {
	base := runtime.NumGoroutine()
	s, ts := testServer(t, func(c *Config) {
		c.Workers = 2
		c.QueueDepth = 2
	})

	// Distinct traces defeat the cache and singleflight, so each request
	// needs its own queue slot.
	const burst = 16
	bodies := make([][]byte, burst)
	for i := range bodies {
		bodies[i] = traceBytes(t, "fig1", i+2)
	}
	statuses := make(chan int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/analyze", "application/octet-stream", bytes.NewReader(bodies[i]))
			if err != nil {
				t.Errorf("burst %d: %v", i, err)
				statuses <- -1
				return
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				t.Errorf("burst %d: 429 without Retry-After", i)
			}
			statuses <- resp.StatusCode
		}(i)
	}
	wg.Wait()
	close(statuses)

	counts := map[int]int{}
	for st := range statuses {
		counts[st]++
	}
	if counts[http.StatusOK] == 0 {
		t.Errorf("no burst request succeeded: %v", counts)
	}
	for st := range counts {
		if st != http.StatusOK && st != http.StatusTooManyRequests {
			t.Errorf("unexpected burst status %d (%v)", st, counts)
		}
	}

	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain after burst: %v", err)
	}
	waitNoExtraGoroutines(t, base)
}
