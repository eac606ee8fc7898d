package core

import (
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/analysis"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestFusedObserversAllocationCap is the memory-regression gate for the
// observer fan-out: riding all four experiment simulators on the model's
// decode must add only the observers' own bounded state — never a second
// decode and never a materialized event slice. The model pipeline's graph
// state dominates either way, so the cap is differential: the fused
// five-experiment pass may exceed a plain model pass by at most one event
// slice (the sims' tables are a few MB; re-decoding or materializing
// would cost a full slice plus decode buffers on top).
func TestFusedObserversAllocationCap(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs the full-size trace")
	}
	w, _ := workloads.ByName("gcc")
	tr, err := w.TraceRounds(w.Rounds, 1)
	if err != nil {
		t.Fatal(err)
	}
	eventBytes := uint64(tr.Len()) * uint64(unsafe.Sizeof(trace.Event{}))
	if eventBytes < 4<<20 {
		t.Fatalf("trace too small to make the measurement meaningful: %d bytes", eventBytes)
	}
	path := filepath.Join(t.TempDir(), "gcc.dpg")
	if err := trace.WriteFile(path, tr, trace.BlockBytes(64<<10)); err != nil {
		t.Fatal(err)
	}
	tr = nil // the in-memory copy must not survive into the measurement

	measure := func(extra ...analysis.Observer) uint64 {
		opts := []Option{WithKind(predictor.KindContext), WithWorkers(2)}
		if len(extra) > 0 {
			opts = append(opts, WithObservers(extra...))
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := AnalyzeFile(path, opts...); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	fused := func() uint64 {
		reuse := analysis.NewReuseSim("gcc", 16)
		got := measure(reuse,
			analysis.NewSpecSweep("gcc", predictor.KindContext, analysis.SweepConfig{}),
			analysis.NewConfidenceSim(predictor.KindContext, 7),
			analysis.NewSpecSweep("gcc", predictor.KindContext, analysis.SpeculationSweep()))
		if reuse.Stats().Eligible == 0 {
			t.Fatal("observers saw no events")
		}
		return got
	}
	measure() // warm: decoder pools, one-time tables
	plain := measure()
	fused() // warm the sims' code paths
	withObs := fused()
	t.Logf("plain model pass %d bytes, fused 5-experiment pass %d bytes (event slice %d)",
		plain, withObs, eventBytes)
	if withObs > plain+eventBytes {
		t.Fatalf("fan-out added %d bytes over the plain pass; cap %d (one event slice) — is an observer or a second decode materializing?",
			withObs-plain, eventBytes)
	}
}
