package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

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

// TestDifferentialFusedMatrix is the fused-engine parity gate: for every
// trace codec × decode worker count, a suite streaming from trace files
// through the fused single-pass engine must render the model figures and
// every experiment the fused pass computes byte-identically to the
// in-memory suite.
func TestDifferentialFusedMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in -short mode")
	}
	const scale = 0.03
	codecs := []trace.Codec{trace.CodecNone, trace.CodecLZ, trace.CodecFlate}
	figures := []string{"table1", "fig5", "fig9", "fig13", "correlation", "reuse", "confidence", "ilp", "speculation"}

	// One in-memory reference per figure.
	inMem := NewSuite(SuiteConfig{Scale: scale, Parallel: 4})
	want := map[string]string{}
	for _, id := range figures {
		var buf bytes.Buffer
		if err := inMem.Run(id, &buf); err != nil {
			t.Fatalf("%s (in-memory): %v", id, err)
		}
		want[id] = buf.String()
	}

	for _, codec := range codecs {
		dir := t.TempDir()
		for _, name := range allNames() {
			w, _ := workloads.ByName(name)
			rounds := int(float64(w.Rounds) * scale)
			if rounds < 2 {
				rounds = 2
			}
			tr, err := w.TraceRounds(rounds, 1)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, name+".dpg")
			if err := trace.WriteFile(path, tr, trace.Compression(codec), trace.BlockBytes(8<<10)); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 2, 4} {
			streamed := NewSuite(SuiteConfig{
				Scale: scale, Parallel: 4,
				TraceFile: TraceDir(dir), Workers: workers,
			})
			for _, id := range figures {
				var buf bytes.Buffer
				if err := streamed.Run(id, &buf); err != nil {
					t.Fatalf("codec=%v workers=%d %s: %v", codec, workers, id, err)
				}
				if buf.String() != want[id] {
					t.Errorf("codec=%v workers=%d %s: fused output diverges from in-memory suite",
						codec, workers, id)
				}
			}
		}
	}
}

// TestFusedDecodeOnce asserts the headline property of the fused engine:
// rendering the full model-figure set AND every streaming experiment from
// a trace directory decodes each trace file exactly once (the footer
// probe, which reads only frame headers, is not a decode), whether the
// experiments run on demand or after Precompute.
func TestFusedDecodeOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-experiment render in -short mode")
	}
	const scale = 0.03
	dir := t.TempDir()
	paths := map[string]string{}
	for _, name := range allNames() {
		p, _ := writeScaledTrace(t, dir, name, scale)
		paths[name] = p
	}
	for _, precompute := range []bool{false, true} {
		snapshot := installDecodeCounter(t)
		s := NewSuite(SuiteConfig{Scale: scale, Parallel: 4, TraceFile: TraceDir(dir), Workers: 2})
		if precompute {
			if err := s.Precompute(); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range []string{"table1", "fig5", "fig9", "fig12", "fig13", "correlation", "reuse", "confidence", "ilp", "speculation", "addresses"} {
			if err := s.Run(id, io.Discard); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
		}

		counts := snapshot()
		for name, p := range paths {
			if counts[p] != 1 {
				t.Errorf("precompute=%v: %s: decoded %d times, want exactly 1", precompute, name, counts[p])
			}
		}
	}
}

// TestAnalyzeFileDecodeCounts pins the per-call decode budget of
// AnalyzeFile: one decode on a healthy v2 file (footer probe answers the
// pre-pass), one with observers fanned out, two only when the probe
// cannot answer (pre-pass statistics requested).
func TestAnalyzeFileDecodeCounts(t *testing.T) {
	path, _ := writeScaledTrace(t, t.TempDir(), "fig1", 0.05)
	for _, tc := range []struct {
		label string
		opts  []Option
		want  int
	}{
		{"plain", nil, 1},
		{"parallel", []Option{WithWorkers(4)}, 1},
		{"observers", []Option{WithObservers(analysis.NewReuseSim("", 8))}, 1},
		{"prestats", []Option{WithPreStats(new(dpg.PreStats))}, 2},
	} {
		snapshot := installDecodeCounter(t)
		if _, err := AnalyzeFile(path, tc.opts...); err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		if got := snapshot()[path]; got != tc.want {
			t.Errorf("%s: %d decodes, want %d", tc.label, got, tc.want)
		}
	}
}

// TestAnalyzeFileObserversParity checks WithObservers changes nothing
// about the model result, the observers see exactly the event stream, and
// WithSpeculation is ignored while observers are registered.
func TestAnalyzeFileObserversParity(t *testing.T) {
	dir := t.TempDir()
	path, tr := writeScaledTrace(t, dir, "gcc", 0.05)

	want, err := AnalyzeFile(path, WithKind(predictor.KindContext))
	if err != nil {
		t.Fatal(err)
	}

	// Reference sims over the in-memory events.
	refReuse := analysis.NewReuseSim("gcc", suiteReuseBits)
	refConf := analysis.NewConfidenceSim(predictor.KindContext, suiteConfMaxLevel)
	refSpec := analysis.NewSpecSim("gcc", predictor.KindContext, suiteSpecConfig(3))
	refILP := analysis.NewILPSim("gcc", predictor.KindContext)
	for i := range tr.Events {
		e := &tr.Events[i]
		refReuse.Observe(e)
		refConf.Observe(e)
		refSpec.Observe(e)
		refILP.Observe(e)
	}

	for _, workers := range []int{1, 2, 4} {
		reuse := analysis.NewReuseSim("gcc", suiteReuseBits)
		conf := analysis.NewConfidenceSim(predictor.KindContext, suiteConfMaxLevel)
		spec := analysis.NewSpecSim("gcc", predictor.KindContext, suiteSpecConfig(3))
		ilp := analysis.NewILPSim("gcc", predictor.KindContext)
		got, err := AnalyzeFile(path,
			WithKind(predictor.KindContext), WithWorkers(workers),
			WithSpeculation(4), // must be a no-op under observers
			WithObservers(reuse, ilp, conf, spec))
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
		if spec.Stats() != refSpec.Stats() {
			t.Errorf("workers=%d: speculation sim diverges from in-memory reference", workers)
		}
		if ilp.Stats() != refILP.Stats() {
			t.Errorf("workers=%d: ILP sim diverges from in-memory reference", workers)
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
