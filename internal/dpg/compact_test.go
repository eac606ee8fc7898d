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

// checkGenPointConservation checks that the generate points account for
// every folded generator: their generators sum to Trees.Gens and their
// tree sizes to Trees.Size, and every entry is keyed by its own PC and
// holds at least one generator.
func checkGenPointConservation(t *testing.T, what string, res *Result) {
	t.Helper()
	var gens, size uint64
	for pc, gp := range res.GenPoints {
		if gp.PC != pc || gp.Gens == 0 {
			t.Errorf("%s: GenPoints[%d] = %+v", what, pc, *gp)
		}
		gens += gp.Gens
		size += gp.TreeSize
	}
	if gens != res.Trees.Gens || size != res.Trees.Size {
		t.Errorf("%s: generate points hold %d generators, tree size %d; Trees has %d, %d",
			what, gens, size, res.Trees.Gens, res.Trees.Size)
	}
}

// TestGenPointConservation holds the per-PC generate points to the tree
// totals on every workload under every predictor, at a hundredth of the
// default rounds. It then runs a Builder without static counts, whose
// PCs all lie outside the per-PC table and take the map: its Result must
// equal that of static counts under which no producer is write-once, and
// conservation must hold for PCs far past any program.
func TestGenPointConservation(t *testing.T) {
	for _, w := range workloads.All() {
		tr, err := w.TraceRounds(max(1, w.Rounds/100), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range predictor.AllKinds {
			res, err := Run(tr, k)
			if err != nil {
				t.Fatal(err)
			}
			if res.Trees.Gens == 0 {
				t.Fatalf("%s/%s: no generators", w.Name, k)
			}
			checkGenPointConservation(t, w.Name+"/"+k.String(), res)
		}
	}

	w, _ := workloads.ByName("gcc")
	tr, err := w.TraceRounds(w.Rounds/4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Predictor: predictor.KindStride.Factory(), PredictorName: "stride"}
	run := func(staticCount []uint64, pcOffset uint32) *Result {
		b, err := NewBuilder(tr.Name, staticCount, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range tr.Events {
			e.PC += pcOffset
			if err := b.Observe(&e); err != nil {
				t.Fatal(err)
			}
		}
		res, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	neverOnce := make([]uint64, len(tr.StaticCount))
	for i := range neverOnce {
		neverOnce[i] = 2
	}
	want := run(neverOnce, 0)
	if got := run(nil, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("nil static counts: Result differs from the per-PC table's")
	}
	const offset = 1 << 24
	shifted := run(nil, offset)
	checkGenPointConservation(t, "nil static counts, shifted PCs", shifted)
	for pc := range shifted.GenPoints {
		if pc < offset {
			t.Fatalf("shifted run has a generate point at pc %d", pc)
		}
	}
	if want.Trees.Gens < 2*compactFloor {
		t.Errorf("gcc: %d generators, too few to trigger compaction", want.Trees.Gens)
	}
}
