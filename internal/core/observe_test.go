package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/dpg"
	"repro/internal/faultinject"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// installDecodeCounter routes the decode test seam into a mutex-protected
// per-path counter for the duration of one test.
func installDecodeCounter(t *testing.T) func() map[string]int {
	t.Helper()
	var mu sync.Mutex
	counts := map[string]int{}
	decodeHook = func(path string) func() {
		mu.Lock()
		counts[path]++
		mu.Unlock()
		return nil
	}
	t.Cleanup(func() { decodeHook = nil })
	return func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[string]int, len(counts))
		for k, v := range counts {
			out[k] = v
		}
		return out
	}
}

// TestAnalyzeFileDecodeCounts pins the per-call decode budget of
// AnalyzeFile, AnalyzeFileKinds, AnalyzeFiles and AnalyzeDir: one decode
// on a healthy v2 file (footer probe answers the pre-pass), one with
// observers fanned out or five predictors modelled — per file, too, when
// several files fan out — and two only when the probe cannot answer
// (pre-pass statistics requested).
func TestAnalyzeFileDecodeCounts(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeScaledTrace(t, dir, "fig1", 0.05)
	kinds := func(opts ...Option) error {
		_, err := AnalyzeFileKinds(path, predictor.AllKinds, opts...)
		return err
	}
	file := func(opts ...Option) error {
		_, err := AnalyzeFile(path, opts...)
		return err
	}
	for _, tc := range []struct {
		label string
		run   func(...Option) error
		opts  []Option
		want  int
	}{
		{"plain", file, nil, 1},
		{"parallel", file, []Option{WithWorkers(4)}, 1},
		{"observers", file, []Option{WithObservers(analysis.NewReuseSim("", 8))}, 1},
		{"prestats", file, []Option{WithPreStats(new(dpg.PreStats))}, 2},
		{"kinds", kinds, nil, 1},
		{"kinds/parallel", kinds, []Option{WithWorkers(4)}, 1},
		{"kinds/prestats", kinds, []Option{WithPreStats(new(dpg.PreStats))}, 2},
	} {
		snapshot := installDecodeCounter(t)
		if err := tc.run(tc.opts...); err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		if got := snapshot()[path]; got != tc.want {
			t.Errorf("%s: %d decodes, want %d", tc.label, got, tc.want)
		}
	}

	other, _ := writeScaledTrace(t, dir, "com", 0.05)
	for _, tc := range []struct {
		label string
		run   func() error
	}{
		{"files", func() error {
			for _, fr := range AnalyzeFiles([]string{path, other}, predictor.AllKinds, 2, WithWorkers(2)) {
				if fr.Err != nil {
					return fr.Err
				}
			}
			return nil
		}},
		{"dir", func() error {
			_, _, err := AnalyzeDir(dir, predictor.AllKinds, 2)
			return err
		}},
	} {
		snapshot := installDecodeCounter(t)
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		counts := snapshot()
		for _, p := range []string{path, other} {
			if counts[p] != 1 {
				t.Errorf("%s: %s decoded %d times for five kinds, want 1", tc.label, filepath.Base(p), counts[p])
			}
		}
	}
}

// TestAnalyzeFileObserversParity checks WithObservers changes nothing
// about the model result and the observers see exactly the event stream.
func TestAnalyzeFileObserversParity(t *testing.T) {
	dir := t.TempDir()
	path, tr := writeScaledTrace(t, dir, "gcc", 0.05)

	want, err := AnalyzeFile(path, WithKind(predictor.KindContext))
	if err != nil {
		t.Fatal(err)
	}

	// Reference sims over the in-memory events.
	refReuse := analysis.NewReuseSim("gcc", analysis.ReuseBits)
	refConf := analysis.NewConfidenceSim(predictor.KindContext, analysis.ConfMaxLevel)
	refSweep := analysis.NewSpecSweep("gcc", predictor.KindContext, analysis.SpeculationSweep())
	refILP := analysis.NewSpecSweep("gcc", predictor.KindContext, analysis.SweepConfig{})
	for i := range tr.Events {
		e := &tr.Events[i]
		refReuse.Observe(e)
		refConf.Observe(e)
		refSweep.Observe(e)
		refILP.Observe(e)
	}

	for _, workers := range []int{1, 2, 4} {
		reuse := analysis.NewReuseSim("gcc", analysis.ReuseBits)
		conf := analysis.NewConfidenceSim(predictor.KindContext, analysis.ConfMaxLevel)
		sweep := analysis.NewSpecSweep("gcc", predictor.KindContext, analysis.SpeculationSweep())
		ilp := analysis.NewSpecSweep("gcc", predictor.KindContext, analysis.SweepConfig{})
		got, err := AnalyzeFile(path,
			WithKind(predictor.KindContext), WithWorkers(workers),
			WithObservers(reuse, ilp, conf, sweep))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: model result diverges under WithObservers", workers)
		}
		if reuse.Stats() != refReuse.Stats() {
			t.Errorf("workers=%d: reuse sim diverges from in-memory reference", workers)
		}
		if !reflect.DeepEqual(conf.Points(), refConf.Points()) {
			t.Errorf("workers=%d: confidence sim diverges from in-memory reference", workers)
		}
		if !reflect.DeepEqual(sweep.Stats(), refSweep.Stats()) {
			t.Errorf("workers=%d: speculation sweep diverges from in-memory reference", workers)
		}
		if !reflect.DeepEqual(ilp.Stats(), refILP.Stats()) {
			t.Errorf("workers=%d: ILP sim diverges from in-memory reference", workers)
		}
		if sweep.Stats().ILP != refILP.Stats().ILP {
			t.Errorf("workers=%d: the gated sweep's ILP timelines diverge from the gateless sweep's", workers)
		}
	}
}

// TestAnalyzeFileObserversCorruptionParity runs the corruption flip matrix
// through the fused observer path and holds its error contract to the
// plain path's: both fail (with the typed taxonomy) or both succeed, on
// every damaged variant.
func TestAnalyzeFileObserversCorruptionParity(t *testing.T) {
	w, _ := workloads.ByName("fig1")
	tr, _ := w.TraceRounds(3, 1)
	good := filepath.Join(t.TempDir(), "good.dpg")
	if err := trace.WriteFile(good, tr, trace.BlockEvents(16)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	typed := func(err error) bool {
		return errors.Is(err, ErrMalformedEvent) || errors.Is(err, ErrTruncated) ||
			errors.Is(err, ErrChecksum) || errors.Is(err, trace.ErrMalformed)
	}
	dir := t.TempDir()
	for off := 0; off < len(data); off += len(data)/16 + 1 {
		bad, err := io.ReadAll(faultinject.NewReader(bytes.NewReader(data),
			faultinject.Flip{Offset: int64(off), XOR: 0xFF}))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("flip%d.dpg", off))
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, plainErr := AnalyzeFile(path)
		_, fusedErr := AnalyzeFile(path, WithObservers(analysis.NewReuseSim("", 8)))
		if (plainErr == nil) != (fusedErr == nil) {
			t.Errorf("flip at %d: plain err = %v, fused err = %v (contract parity broken)",
				off, plainErr, fusedErr)
			continue
		}
		if fusedErr != nil && !typed(fusedErr) {
			t.Errorf("flip at %d: fused err = %v, want typed taxonomy error", off, fusedErr)
		}
	}

	// Truncation at every frame-ish granularity holds the same parity.
	for cut := 1; cut < len(data); cut += len(data)/8 + 1 {
		path := filepath.Join(dir, fmt.Sprintf("cut%d.dpg", cut))
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, plainErr := AnalyzeFile(path)
		_, fusedErr := AnalyzeFile(path, WithObservers(analysis.NewReuseSim("", 8)))
		if (plainErr == nil) != (fusedErr == nil) {
			t.Errorf("cut at %d: plain err = %v, fused err = %v", cut, plainErr, fusedErr)
			continue
		}
		if fusedErr != nil && !typed(fusedErr) {
			t.Errorf("cut at %d: fused err = %v, want typed taxonomy error", cut, fusedErr)
		}
	}
}

// analyzeEachKind is AnalyzeFileKinds' reference: one AnalyzeFile call,
// one decode, per predictor, each filling its own trace.Stats.
func analyzeEachKind(path string, kinds []predictor.Kind, opts ...Option) ([]*dpg.Result, []trace.Stats, error) {
	res := make([]*dpg.Result, len(kinds))
	stats := make([]trace.Stats, len(kinds))
	for i, k := range kinds {
		var err error
		res[i], err = AnalyzeFile(path, append(opts[:len(opts):len(opts)], WithKind(k), WithTraceStats(&stats[i]))...)
		if err != nil {
			return nil, nil, err
		}
	}
	return res, stats, nil
}

// TestModelObserverTakesBlocks pins the model observer to the block
// interface, so the fan-out makes one call per block into each model
// pass rather than one per event.
func TestModelObserverTakesBlocks(t *testing.T) {
	var o analysis.Observer = &modelObserver{}
	if _, ok := o.(analysis.BlockObserver); !ok {
		t.Fatal("modelObserver does not implement analysis.BlockObserver")
	}
}

// TestAnalyzeFileKindsDifferential is the parity gate of the one-decode
// multi-predictor entry point: for every workload × decode worker count,
// AnalyzeFileKinds over every predictor must return exactly what five
// separate AnalyzeFile calls return, in kinds order — also with model
// options that apply to every kind, and in lenient mode on a damaged file,
// where the decode summary must match too.
func TestAnalyzeFileKindsDifferential(t *testing.T) {
	names := workloads.Names()
	if testing.Short() {
		names = []string{"fig1", "gcc", "bfs"}
	}
	dir := t.TempDir()
	for _, name := range names {
		path, _ := writeScaledTrace(t, dir, name, 0.03, trace.BlockEvents(256))
		want, _, err := analyzeEachKind(path, predictor.AllKinds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, workers := range []int{1, 2, 4} {
			got, err := AnalyzeFileKinds(path, predictor.AllKinds, WithWorkers(workers))
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", name, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/workers=%d: AnalyzeFileKinds diverges from per-kind AnalyzeFile", name, workers)
			}
		}
	}

	// Model options reach every kind; WithKind is overridden, and a
	// reordered subset comes back in the order asked for.
	path, _ := writeScaledTrace(t, dir, "gcc", 0.03, trace.BlockEvents(256))
	subset := []predictor.Kind{predictor.KindLDBP, predictor.KindLast, predictor.KindContext}
	for _, tc := range []struct {
		label string
		opts  []Option
	}{
		{"graph", []Option{WithGraphLimit(16)}},
		{"kind", []Option{WithGraphLimit(8), WithKind(predictor.KindStride)}},
	} {
		want, _, err := analyzeEachKind(path, subset, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		got, err := AnalyzeFileKinds(path, subset, append(tc.opts, WithWorkers(2))...)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: AnalyzeFileKinds diverges from per-kind AnalyzeFile", tc.label)
		}
	}

	// Lenient mode on a flipped byte: the surviving events, and the
	// decode summary, are the same whichever way the file is read.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	bad := filepath.Join(dir, "flipped.dpg")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := analyzeEachKind(bad, predictor.AllKinds, WithLenientTrace())
	if err != nil {
		t.Fatal(err)
	}
	if wantStats[0].BlocksSkipped == 0 {
		t.Fatalf("flipped byte skipped no block: %+v", wantStats[0])
	}
	for _, workers := range []int{1, 4} {
		var st trace.Stats
		got, err := AnalyzeFileKinds(bad, predictor.AllKinds, WithLenientTrace(), WithWorkers(workers), WithTraceStats(&st))
		if err != nil {
			t.Fatalf("lenient/workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("lenient/workers=%d: AnalyzeFileKinds diverges from per-kind AnalyzeFile", workers)
		}
		for i, ws := range wantStats {
			if st != ws {
				t.Errorf("lenient/workers=%d: trace stats %+v, AnalyzeFile(%s) %+v", workers, st, predictor.AllKinds[i], ws)
			}
		}
	}

	// An unknown kind is a configuration error, as under AnalyzeFile.
	if _, err := AnalyzeFileKinds(path, []predictor.Kind{predictor.KindLast, 99}); !errors.Is(err, ErrConfig) {
		t.Errorf("unknown kind: err = %v, want ErrConfig", err)
	}
}

// TestAnalyzeFileKindsCorruptionParity runs the corruption flip and
// truncation matrix through AnalyzeFileKinds and holds it to
// AnalyzeFile's error contract: both fail with the typed taxonomy, or both
// succeed with the same results.
func TestAnalyzeFileKindsCorruptionParity(t *testing.T) {
	w, _ := workloads.ByName("fig1")
	tr, _ := w.TraceRounds(3, 1)
	good := filepath.Join(t.TempDir(), "good.dpg")
	if err := trace.WriteFile(good, tr, trace.BlockEvents(16)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	typed := func(err error) bool {
		return errors.Is(err, ErrMalformedEvent) || errors.Is(err, ErrTruncated) ||
			errors.Is(err, ErrChecksum) || errors.Is(err, trace.ErrMalformed)
	}
	dir := t.TempDir()
	check := func(label string, variant []byte) {
		path := filepath.Join(dir, label+".dpg")
		if err := os.WriteFile(path, variant, 0o644); err != nil {
			t.Fatal(err)
		}
		want, _, plainErr := analyzeEachKind(path, predictor.AllKinds)
		got, kindsErr := AnalyzeFileKinds(path, predictor.AllKinds, WithWorkers(2))
		switch {
		case (plainErr == nil) != (kindsErr == nil):
			t.Errorf("%s: AnalyzeFile err = %v, AnalyzeFileKinds err = %v (contract parity broken)",
				label, plainErr, kindsErr)
		case kindsErr != nil && !typed(kindsErr):
			t.Errorf("%s: AnalyzeFileKinds err = %v, want typed taxonomy error", label, kindsErr)
		case kindsErr == nil && !reflect.DeepEqual(got, want):
			t.Errorf("%s: AnalyzeFileKinds results diverge from AnalyzeFile's", label)
		}
	}
	for off := 0; off < len(data); off += len(data)/16 + 1 {
		bad, err := io.ReadAll(faultinject.NewReader(bytes.NewReader(data),
			faultinject.Flip{Offset: int64(off), XOR: 0xFF}))
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("flip%d", off), bad)
	}
	for cut := 1; cut < len(data); cut += len(data)/8 + 1 {
		check(fmt.Sprintf("cut%d", cut), data[:cut])
	}
}

// cancelObserver cancels its context on the first event it sees, so the
// decode is cut off mid-stream with every model pass running.
type cancelObserver struct {
	once   sync.Once
	cancel context.CancelFunc
}

func (c *cancelObserver) Observe(*trace.Event) { c.once.Do(c.cancel) }

// TestAnalyzeFileKindsCancelNoLeak cancels AnalyzeFileKinds mid-stream:
// the call returns ErrAborted (matching context.Canceled too) and leaves
// no decode worker or observer goroutine behind.
func TestAnalyzeFileKindsCancelNoLeak(t *testing.T) {
	// ~38K events in 16-event blocks, at every worker count.
	path, _ := writeScaledTrace(t, t.TempDir(), "gcc", 0.2, trace.BlockEvents(16))
	base := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		res, err := AnalyzeFileKinds(path, predictor.AllKinds, WithWorkers(workers), WithContext(ctx),
			WithObservers(&cancelObserver{cancel: cancel}))
		cancel()
		if res != nil || !errors.Is(err, ErrAborted) || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: res = %v, err = %v, want nil and ErrAborted", workers, res, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAnalyzeFilesKinds holds the multi-file fan-out to the per-file,
// per-kind reference: at every fan-out width × decode worker count,
// AnalyzeFiles over every predictor returns, per file and in kinds order,
// exactly what one AnalyzeFile call per (file, kind) returns, and a
// damaged file fails alone in its own FileResult.
func TestAnalyzeFilesKinds(t *testing.T) {
	dir := t.TempDir()
	var healthy []string
	var want [][]*dpg.Result
	for _, name := range []string{"fig1", "gcc", "bfs"} {
		path, _ := writeScaledTrace(t, dir, name, 0.03, trace.BlockEvents(256))
		res, _, err := analyzeEachKind(path, predictor.AllKinds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		healthy = append(healthy, path)
		want = append(want, res)
	}
	data, err := os.ReadFile(healthy[1])
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "truncated.dpg")
	if err := os.WriteFile(bad, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	paths := []string{healthy[0], bad, healthy[1], healthy[2]}
	want = [][]*dpg.Result{want[0], nil, want[1], want[2]}

	for _, parallel := range []int{1, 3} {
		for _, workers := range []int{1, 2} {
			label := fmt.Sprintf("parallel=%d/workers=%d", parallel, workers)
			got := AnalyzeFiles(paths, predictor.AllKinds, parallel, WithWorkers(workers))
			if len(got) != len(paths) {
				t.Fatalf("%s: %d results for %d paths", label, len(got), len(paths))
			}
			for i, fr := range got {
				switch {
				case fr.Path != paths[i]:
					t.Errorf("%s: result %d is for %q, want %q", label, i, fr.Path, paths[i])
				case want[i] == nil:
					if fr.Res != nil || !errors.Is(fr.Err, ErrTruncated) {
						t.Errorf("%s: damaged file: res = %v, err = %v, want nil and ErrTruncated", label, fr.Res, fr.Err)
					}
				case fr.Err != nil:
					t.Errorf("%s: healthy %s failed: %v", label, fr.Path, fr.Err)
				case !reflect.DeepEqual(fr.Res, want[i]):
					t.Errorf("%s: %s diverges from per-kind AnalyzeFile", label, fr.Path)
				case fr.Stats.Events != want[i][0].Nodes:
					t.Errorf("%s: %s stats report %d events, results have %d nodes",
						label, fr.Path, fr.Stats.Events, want[i][0].Nodes)
				}
			}
		}
	}
}

// TestAnalyzeFileObserverPanicIsolated checks a panicking observer surfaces
// as a typed *analysis.ObserverError without poisoning the process or the
// sibling observers' correctness on a healthy rerun.
func TestAnalyzeFileObserverPanicIsolated(t *testing.T) {
	path, _ := writeScaledTrace(t, t.TempDir(), "fig1", 0.05)
	bomb := panicObserver{}
	res, err := AnalyzeFile(path, WithObservers(bomb))
	if res != nil {
		t.Error("result returned alongside an observer failure")
	}
	var oe *analysis.ObserverError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %v, want *analysis.ObserverError", err)
	}
	if oe.Panic == nil {
		t.Errorf("observer error lost the panic payload: %+v", oe)
	}
	// The same file analyses cleanly afterwards.
	if _, err := AnalyzeFile(path); err != nil {
		t.Fatalf("healthy rerun after observer panic: %v", err)
	}
}

// panicObserver blows up on the first event.
type panicObserver struct{}

func (panicObserver) Observe(e *trace.Event) { panic("observer bomb") }
