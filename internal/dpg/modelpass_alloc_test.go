//go:build !race

package dpg

import (
	"runtime"
	"testing"

	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/workloads"
)

// TestModelPassAllocsPerEvent is the allocation gate for the sequential
// model pass: in steady state it reuses value records and influence-set
// buffers, so heap allocations must not grow with trace length. Only the
// one-time setup (predictor tables, the memory map), the generator table
// growing to the size at which compaction holds it, and one GenPoints
// entry per generating static instruction may allocate. The gate runs gcc at a tenth
// of its default rounds and at full size under every predictor; a pass
// that allocates per event fails at both.
func TestModelPassAllocsPerEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement needs the full-size trace")
	}
	const maxPerEvent = 0.05
	w, ok := workloads.ByName("gcc")
	if !ok {
		t.Fatal("gcc workload missing")
	}
	for _, rounds := range []int{w.Rounds / 10, w.Rounds} {
		tr, err := w.TraceRounds(rounds, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range predictor.AllKinds {
			cfg := Config{Predictor: k.Factory(), PredictorName: k.String()}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if _, err := RunWith(tr, cfg); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			per := float64(after.Mallocs-before.Mallocs) / float64(len(tr.Events))
			t.Logf("gcc rounds=%d %s: %d events, %.4f mallocs/event", rounds, k, len(tr.Events), per)
			if per > maxPerEvent {
				t.Errorf("gcc rounds=%d %s: %.4f mallocs/event, gate %.2f — is the model pass allocating per event?",
					rounds, k, per, maxPerEvent)
			}
		}
	}
}

// TestModelPassLiveHeapScaling is the memory-scaling gate: compaction keeps
// the generator table proportional to live state, so the model pass's live
// heap must not grow with trace length. For last-value on gcc and mgr, the
// heap the pass holds just before Finish (HeapAlloc after a GC, less the
// heap before the pass was built) at four times the default rounds is at
// most 1.25 times that at the default. The generator table at the end of
// each run must also be bounded by the compaction trigger, not by the
// number of generators the run created.
func TestModelPassLiveHeapScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("heap scaling needs full-size traces")
	}
	const maxGrowth = 1.25
	for _, name := range []string{"gcc", "mgr"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("%s workload missing", name)
		}
		var heap [2]float64
		for i, rounds := range []int{w.Rounds, 4 * w.Rounds} {
			heap[i] = passLiveHeap(t, w, rounds)
		}
		growth := heap[1] / heap[0]
		t.Logf("%s last-value: live heap %.2f MB at %d rounds, %.2f MB at %d rounds (x%.2f)",
			name, heap[0]/(1<<20), w.Rounds, heap[1]/(1<<20), 4*w.Rounds, growth)
		if growth > maxGrowth {
			t.Errorf("%s last-value: live heap grew x%.2f from 1x to 4x rounds, gate x%.2f — is the generator table compacting?",
				name, growth, maxGrowth)
		}
	}
}

// passLiveHeap runs the last-value model pass over w at the given rounds
// and returns the heap it holds before Finish, checking the generator
// table against the compaction trigger on the way.
func passLiveHeap(t *testing.T, w *workloads.Workload, rounds int) float64 {
	t.Helper()
	tr, err := w.TraceRounds(rounds, 1)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := newModelPass(tr.Name, tr.StaticCount, Config{Predictor: predictor.KindLast.Factory()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Events {
		if err := m.Observe(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	// maybeCompact ran before the last event, which adds at most one
	// generator per operand slot plus one for the node.
	trigger := max(compactFloor, 2*len(m.liveGens), isa.NumRegs+len(m.mem))
	created := m.res.Trees.Gens + uint64(len(m.genClass))
	if n := len(m.genClass); n >= trigger+len(m.contrib)+1 {
		t.Errorf("%s rounds=%d: %d generators in the table, above the compaction trigger %d", w.Name, rounds, n, trigger)
	}
	if created <= uint64(trigger) {
		t.Errorf("%s rounds=%d: only %d generators created, too few to exercise compaction", w.Name, rounds, created)
	}
	if _, err := m.Finish(); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(tr)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}
