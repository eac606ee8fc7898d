package core

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// tripCtx is a context that cancels itself after a fixed number of Err()
// probes — a deterministic way to land a cancellation in the middle of a
// streaming analysis, instead of racing a timer against the decode loop.
type tripCtx struct {
	context.Context
	mu      sync.Mutex
	probes  int
	done    chan struct{}
	tripped bool
}

func newTripCtx(probes int) *tripCtx {
	return &tripCtx{Context: context.Background(), probes: probes, done: make(chan struct{})}
}

func (c *tripCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tripped {
		return context.Canceled
	}
	c.probes--
	if c.probes <= 0 {
		c.tripped = true
		close(c.done)
		return context.Canceled
	}
	return nil
}

func (c *tripCtx) Done() <-chan struct{} { return c.done }

// used reports how many probes the context has consumed so far.
func (c *tripCtx) used(start int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return start - c.probes
}

// waitNoExtraGoroutines polls until the goroutine count returns to the
// baseline (pipeline and chain goroutines exit asynchronously).
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

// writeWorkloadTrace materializes one workload trace into a temp file.
func writeWorkloadTrace(t *testing.T, name string, rounds int) string {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	tr, err := w.TraceRounds(rounds, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name+".dpg")
	if err := trace.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

// wantAborted asserts the analysis failed with the abort taxonomy: both
// ErrAborted and the underlying context error must match.
func wantAborted(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("analysis completed despite cancellation")
	}
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("want ErrAborted, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled beneath ErrAborted, got %v", err)
	}
}

// TestAnalyzeFileContextPreCancelled checks an already-dead context stops
// the analysis before any file I/O.
func TestAnalyzeFileContextPreCancelled(t *testing.T) {
	path := writeWorkloadTrace(t, "fig1", 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := AnalyzeFile(path, WithContext(ctx))
	if res != nil {
		t.Error("got a result from a pre-cancelled analysis")
	}
	wantAborted(t, err)
}

// TestAnalyzeFileCancelMidDecode lands a cancellation in the middle of the
// streaming decode — sequential and parallel — and checks the abort is
// typed and leak-free.
func TestAnalyzeFileCancelMidDecode(t *testing.T) {
	path := writeWorkloadTrace(t, "fig1", 20)
	for name, opts := range map[string][]Option{
		"sequential": {WithKind(predictor.KindLast)},
		"parallel":   {WithKind(predictor.KindLast), WithWorkers(4)},
	} {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			// A huge probe budget measures how many probes a full run uses;
			// tripping a few before that lands mid-stream on the rerun.
			const budget = 1 << 30
			probe := newTripCtx(budget)
			if _, err := AnalyzeFile(path, append(opts[:len(opts):len(opts)], WithContext(probe))...); err != nil {
				t.Fatalf("probe run: %v", err)
			}
			total := probe.used(budget)
			if total < 4 {
				t.Skipf("only %d cancellation probes in a full run; trace too small to cancel mid-stream", total)
			}
			ctx := newTripCtx(total / 2)
			res, err := AnalyzeFile(path, append(opts[:len(opts):len(opts)], WithContext(ctx))...)
			if res != nil {
				t.Error("got a result from a cancelled analysis")
			}
			wantAborted(t, err)
			waitNoExtraGoroutines(t, base)
		})
	}
}

// TestAnalyzeFilesContextCancel checks a dead context marks every file
// aborted without analysing any of them.
func TestAnalyzeFilesContextCancel(t *testing.T) {
	good := writeWorkloadTrace(t, "fig1", 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := AnalyzeFiles([]string{good, good, good}, predictor.AllKinds, 2, WithContext(ctx))
	for i, fr := range out {
		if !errors.Is(fr.Err, ErrAborted) || !errors.Is(fr.Err, context.Canceled) {
			t.Errorf("file %d: want ErrAborted/context.Canceled, got %v", i, fr.Err)
		}
		if fr.Res != nil {
			t.Errorf("file %d was analysed despite cancellation", i)
		}
	}
}
