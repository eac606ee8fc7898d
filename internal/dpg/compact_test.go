package dpg

import (
	"reflect"
	"testing"

	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// runEagerCompaction runs the sequential pass over tr with a generator
// table compaction at every event boundary, the most aggressive schedule
// compaction allows.
func runEagerCompaction(t *testing.T, tr *trace.Trace, cfg Config) *Result {
	t.Helper()
	m, err := newModelPass(tr.Name, tr.StaticCount, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Events {
		m.compactGens()
		if err := m.Observe(&tr.Events[i]); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	res, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// tracePrefix returns the first n events of tr as a trace of its own.
func tracePrefix(tr *trace.Trace, n int) *trace.Trace {
	out := trace.New(tr.Name, tr.NumStatic)
	for _, e := range tr.Events[:min(n, len(tr.Events))] {
		out.Append(e)
	}
	return out
}

// TestGenCompactionDifferential holds generator-table compaction to its
// contract: when it runs changes no Result figure. Every workload under
// every predictor, compacted at every event boundary, must give a Result
// identical to the default schedule's; so must the speculative pass, whose
// committer compacts on the default schedule, on a trace long enough to
// trigger it. A sweep at every event walks all live memory words, so the
// workloads are cut to their first few thousand events.
func TestGenCompactionDifferential(t *testing.T) {
	for _, w := range workloads.All() {
		full, err := w.TraceRounds(max(1, w.Rounds/100), 1)
		if err != nil {
			t.Fatal(err)
		}
		tr := tracePrefix(full, 6000)
		for _, k := range predictor.AllKinds {
			cfg := Config{Predictor: k.Factory(), PredictorName: k.String()}
			want, err := RunWith(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := runEagerCompaction(t, tr, cfg); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: eagerly compacted Result differs from the default schedule's", w.Name, k)
			}
		}
	}

	w, _ := workloads.ByName("gcc")
	tr, err := w.TraceRounds(w.Rounds/4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range predictor.AllKinds {
		cfg := Config{Predictor: k.Factory(), PredictorName: k.String()}
		want := runEagerCompaction(t, tr, cfg)
		if want.Trees.Gens < 2*compactFloor {
			t.Fatalf("gcc/%s: %d generators, too few to trigger compaction", k, want.Trees.Gens)
		}
		got, err := RunSpeculative(tr, cfg, SpecConfig{Workers: 2, Epochs: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("gcc/%s: speculative Result differs from the eagerly compacted one", k)
		}
	}
}
