package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// writeScaledTrace generates a workload trace at a small scale and writes
// it to dir with the given writer options (small blocks, say), returning
// the path and the in-memory trace it encodes.
func writeScaledTrace(t *testing.T, dir, name string, scale float64, wopts ...trace.WriteOption) (string, *trace.Trace) {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	rounds := int(float64(w.Rounds) * scale)
	if rounds < 2 {
		rounds = 2
	}
	tr, err := w.TraceRounds(rounds, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".dpg")
	if err := trace.WriteFile(path, tr, wopts...); err != nil {
		t.Fatal(err)
	}
	return path, tr
}

// TestDifferentialPipelineAllWorkloads is the pipeline-parity acceptance
// gate: for every workload × predictor kind × worker count, the streaming
// pass pipeline (footer probe + sequential model pass over a trace file)
// must produce a Result deeply identical to the seed in-memory
// builder's.
func TestDifferentialPipelineAllWorkloads(t *testing.T) {
	names := workloads.Names()
	if testing.Short() {
		names = []string{"fig1", "gcc", "bfs"}
	}
	dir := t.TempDir()
	for _, name := range names {
		path, tr := writeScaledTrace(t, dir, name, 0.03)
		for _, kind := range predictor.AllKinds {
			want, err := RunTrace(tr, WithKind(kind))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				got, err := AnalyzeFile(path, WithKind(kind), WithWorkers(workers))
				if err != nil {
					t.Fatalf("%s/%s/workers=%d: %v", name, kind, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s/workers=%d: streaming pipeline Result diverges from in-memory builder",
						name, kind, workers)
				}
			}
		}
	}
}

// TestDifferentialPreStats checks the pre-pass summary AnalyzeFile surfaces
// agrees with the model's own accounting of the same stream.
func TestDifferentialPreStats(t *testing.T) {
	dir := t.TempDir()
	path, tr := writeScaledTrace(t, dir, "gcc", 0.03)
	var ps dpg.PreStats
	res, err := AnalyzeFile(path, WithKind(predictor.KindLast), WithWorkers(4), WithPreStats(&ps))
	if err != nil {
		t.Fatal(err)
	}
	if ps.Events != res.Nodes || ps.Arcs != res.Arcs || ps.DNodes != res.DNodes {
		t.Errorf("pre-stats %+v disagree with model result (nodes=%d arcs=%d dnodes=%d)",
			ps, res.Nodes, res.Arcs, res.DNodes)
	}
	if !reflect.DeepEqual(ps.StaticCount, tr.StaticCount) {
		t.Error("pre-stats static counts diverge from the trace's")
	}
}

// TestAnalyzeFileMemoryCeiling is the memory-regression gate for the
// streaming path: analysing a multi-block trace file must allocate
// strictly less than the materializing path, by at least the size of the
// full event slice the pipeline never builds.
func TestAnalyzeFileMemoryCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("memory accounting in -short mode")
	}
	dir := t.TempDir()
	path, tr := writeScaledTrace(t, dir, "gcc", 0.3)
	n := uint64(len(tr.Events))
	eventBytes := n * uint64(unsafe.Sizeof(trace.Event{}))
	tr = nil

	measure := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	streaming := measure(func() {
		if _, err := AnalyzeFile(path, WithKind(predictor.KindLast), WithWorkers(2)); err != nil {
			t.Fatal(err)
		}
	})
	materializing := measure(func() {
		full, err := trace.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunTrace(full, WithKind(predictor.KindLast)); err != nil {
			t.Fatal(err)
		}
	})

	t.Logf("events=%d (~%d KiB materialized): streaming allocated %d KiB, materializing %d KiB",
		n, eventBytes/1024, streaming/1024, materializing/1024)
	if streaming >= materializing {
		t.Errorf("streaming path allocated %d bytes, materializing path %d", streaming, materializing)
	}
	if materializing-streaming < eventBytes/2 {
		t.Errorf("streaming path saves only %d bytes; expected at least half the %d-byte event slice",
			materializing-streaming, eventBytes)
	}
}

// TestAnalyzeFilesFanOut checks the multi-file worker pool: input order is
// preserved, per-file damage is isolated in FileResult.Err, and healthy
// files match a direct AnalyzeFile run.
func TestAnalyzeFilesFanOut(t *testing.T) {
	dir := t.TempDir()
	a, _ := writeScaledTrace(t, dir, "fig1", 0.03)
	b, _ := writeScaledTrace(t, dir, "com", 0.03)
	bad := filepath.Join(dir, "bad.dpg")
	data, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	paths := []string{a, bad, b}
	kinds := []predictor.Kind{predictor.KindStride}
	results := AnalyzeFiles(paths, kinds, 2, WithWorkers(2))
	if len(results) != len(paths) {
		t.Fatalf("got %d results for %d paths", len(results), len(paths))
	}
	for i, fr := range results {
		if fr.Path != paths[i] {
			t.Errorf("result %d is for %q, want %q (order must be preserved)", i, fr.Path, paths[i])
		}
	}
	if results[1].Err == nil || !errors.Is(results[1].Err, trace.ErrTruncated) {
		t.Errorf("damaged file error = %v, want ErrTruncated", results[1].Err)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Fatalf("healthy file %q failed: %v", paths[i], results[i].Err)
		}
		want, err := AnalyzeFile(paths[i], WithKind(predictor.KindStride), WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		if len(results[i].Res) != 1 || !reflect.DeepEqual(results[i].Res[0], want) {
			t.Errorf("fan-out result for %q diverges from direct analysis", paths[i])
		}
		if results[i].Stats.Events != want.Nodes {
			t.Errorf("per-file stats for %q report %d events, result has %d nodes",
				paths[i], results[i].Stats.Events, want.Nodes)
		}
	}
}

// TestDifferentialFusedMatrix is the trace-directory parity gate across
// codecs (its name is the one it had when trace files ran through a
// separate fused engine): for every trace codec, a suite reading every
// workload from trace files must render the model figures and every
// experiment product byte-identically to the in-memory suite, on demand
// (codec none) and after Precompute.
func TestDifferentialFusedMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in -short mode")
	}
	const scale = 0.03
	figures := []string{"table1", "fig5", "fig9", "fig13",
		"correlation", "reuse", "confidence", "ilp", "speculation"}

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

	for _, codec := range []trace.Codec{trace.CodecNone, trace.CodecLZ, trace.CodecFlate} {
		dir := t.TempDir()
		for _, name := range inMem.suiteNames() {
			writeScaledTrace(t, dir, name, scale, trace.Compression(codec), trace.BlockBytes(8<<10))
		}
		files := NewSuite(SuiteConfig{Scale: scale, Parallel: 4, TraceFile: TraceDir(dir)})
		if codec != trace.CodecNone {
			if err := files.Precompute(); err != nil {
				t.Fatalf("codec=%v: Precompute: %v", codec, err)
			}
		}
		for _, id := range figures {
			var buf bytes.Buffer
			if err := files.Run(id, &buf); err != nil {
				t.Fatalf("codec=%v %s: %v", codec, id, err)
			}
			if buf.String() != want[id] {
				t.Errorf("codec=%v %s: trace-file output diverges from in-memory suite", codec, id)
			}
		}
	}
}

// TestDifferentialSuiteTraceDir renders experiments from a suite that
// reads every workload from trace files and holds the output
// byte-identical to the in-memory suite at the same scale.
func TestDifferentialSuiteTraceDir(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite comparison in -short mode")
	}
	const scale = 0.03
	dir := t.TempDir()
	for _, name := range workloads.Names() {
		writeScaledTrace(t, dir, name, scale)
	}
	inMem := NewSuite(SuiteConfig{Scale: scale, Parallel: 4})
	files := NewSuite(SuiteConfig{Scale: scale, Parallel: 4, TraceFile: TraceDir(dir)})
	for _, id := range []string{"table1", "fig5", "fig12", "fig13", "addresses"} {
		var a, b bytes.Buffer
		if err := inMem.Run(id, &a); err != nil {
			t.Fatalf("%s (in-memory): %v", id, err)
		}
		if err := files.Run(id, &b); err != nil {
			t.Fatalf("%s (trace files): %v", id, err)
		}
		if a.String() != b.String() {
			t.Errorf("%s: trace-file suite output diverges from in-memory suite", id)
		}
	}
	if _, ok := TraceDir(dir)("gcc"); !ok {
		t.Error("TraceDir lookup failed for a written trace")
	}
	if _, ok := TraceDir(dir)("nope"); ok {
		t.Error("TraceDir lookup invented a missing trace")
	}
}

// TestTraceDirFallback: workloads without a trace file fall back to
// generation, so a partial directory still renders every figure.
func TestTraceDirFallback(t *testing.T) {
	const scale = 0.03
	dir := t.TempDir()
	writeScaledTrace(t, dir, "fig1", scale) // only one workload on disk
	s := NewSuite(SuiteConfig{Scale: scale, TraceFile: TraceDir(dir)})
	if _, err := s.Result("fig1", predictor.KindLast); err != nil {
		t.Fatalf("streamed workload: %v", err)
	}
	if _, err := s.Result("gcc", predictor.KindLast); err != nil {
		t.Fatalf("generated fallback workload: %v", err)
	}
}
