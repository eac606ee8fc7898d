package repro

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// graphKinds are the predictors added for the hard-to-predict scenario
// pack; the battery proves them against the same parity contracts the
// paper's three predictors already satisfy.
var graphKinds = []predictor.Kind{predictor.KindTAGE, predictor.KindLDBP}

// TestGraphDifferentialBattery is the acceptance gate for the graph
// scenario pack: for every graph workload × new predictor, the sequential
// in-memory Result is the single source of truth, and every other
// execution strategy — file analysis at several decode worker counts, over
// both codecs, and the epoch-speculative pass with and without explicit
// epoch shaping — must reproduce it byte for byte. The directory-merge coordinator over the
// full graph trace set must equal hand-merging the per-file analyses.
func TestGraphDifferentialBattery(t *testing.T) {
	if testing.Short() {
		t.Skip("graph battery in -short mode")
	}
	dir := t.TempDir()

	type fileCase struct{ name, path string }
	var files []fileCase
	traces := map[string]*trace.Trace{}
	for _, w := range workloads.Graph() {
		rounds := w.Rounds / 4
		if rounds < 2 {
			rounds = 2
		}
		tr, err := w.TraceRounds(rounds, 1)
		if err != nil {
			t.Fatal(err)
		}
		traces[w.Name] = tr
		for _, codec := range []trace.Codec{trace.CodecNone, trace.CodecFlate} {
			path := filepath.Join(dir, fmt.Sprintf("%s-%s.dpg", w.Name, codec))
			if err := trace.WriteFile(path, tr, trace.Compression(codec), trace.BlockBytes(16<<10)); err != nil {
				t.Fatalf("%s/%s: %v", w.Name, codec, err)
			}
			files = append(files, fileCase{name: w.Name, path: path})
		}
	}

	for name, tr := range traces {
		for _, kind := range graphKinds {
			want, err := core.RunTrace(tr, core.WithKind(kind))
			if err != nil {
				t.Fatalf("%s/%s sequential: %v", name, kind, err)
			}

			// File analysis at several decode worker counts, both codecs.
			for _, fc := range files {
				if fc.name != name {
					continue
				}
				for _, workers := range []int{1, 2, 4} {
					got, err := core.AnalyzeFile(fc.path, core.WithKind(kind), core.WithWorkers(workers))
					if err != nil {
						t.Fatalf("%s/%s workers=%d: %v", fc.path, kind, workers, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s/%s workers=%d: streamed Result diverges from sequential", fc.path, kind, workers)
					}
				}
			}

			// Epoch-speculative pass on four chains, at the default
			// epoch count and at an explicit one.
			mcfg := dpg.Config{Predictor: kind.Factory(), PredictorName: kind.String()}
			for _, epochs := range []int{0, 7} {
				var st dpg.SpecStats
				got, err := dpg.RunSpeculative(tr, mcfg, dpg.SpecConfig{Workers: 4, Epochs: epochs, Stats: &st})
				if err != nil {
					t.Fatalf("%s/%s epochs=%d: %v", name, kind, epochs, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s epochs=%d: speculative Result diverges from sequential", name, kind, epochs)
				}
				if st.Fallback {
					t.Errorf("%s/%s: speculation fell back — predictor lost its Checkpointer?", name, kind)
				}
				if st.Diverged != 0 || st.Replayed != 0 {
					t.Errorf("%s/%s epochs=%d: spurious divergence: %+v", name, kind, epochs, st)
				}
			}
		}
	}

	// Capstone: the directory-merge coordinator over the mixed-codec graph
	// trace set, both new kinds on one decode per file, equals
	// hand-merging the per-file analyses, per kind.
	paths, err := filepath.Glob(filepath.Join(dir, "*.dpg"))
	if err != nil || len(paths) != len(files) {
		t.Fatalf("globbing graph traces: %v (%d files, want %d)", err, len(paths), len(files))
	}
	sort.Strings(paths)
	got, perFile, err := core.AnalyzeDir(dir, graphKinds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(perFile) != len(paths) || len(got) != len(graphKinds) {
		t.Fatalf("%d file results and %d aggregates, want %d and %d", len(perFile), len(got), len(paths), len(graphKinds))
	}
	for i, kind := range graphKinds {
		var partials []*dpg.Result
		for _, p := range paths {
			r, err := core.AnalyzeFile(p, core.WithKind(kind))
			if err != nil {
				t.Fatal(err)
			}
			partials = append(partials, r)
		}
		want, err := dpg.MergeResults(partials...)
		if err != nil {
			t.Fatal(err)
		}
		want.Name = filepath.Base(dir)
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s: AnalyzeDir aggregate diverges from hand-merged sequential analyses", kind)
		}
	}
}
