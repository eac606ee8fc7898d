package dpg

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// specTraces returns the differential workloads: every event shape (loads,
// stores, branches, `in` D nodes, neutral ops) across small and large PC
// universes, plus a graph workload whose branches test loaded values (the
// hard-to-predict scenario the tage/ldbp predictors target).
func specTraces(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	out := map[string]*trace.Trace{}
	for _, name := range []string{"fig1", "gcc", "com", "bfs"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		tr, err := w.TraceRounds(max(2, w.Rounds/50), 1)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = tr
	}
	return out
}

// mustEqualResults asserts two Results are identical in every field.
func mustEqualResults(t *testing.T, ctx string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: speculative Result differs from sequential Result", ctx)
	}
}

// wantChains is the chain count a run configured with workers should get:
// workers <= 0 means min(GOMAXPROCS, 4), and either is clamped to the
// number of state units — four, or three when SharedInputOutput folds the
// output unit into the input unit.
func wantChains(workers int, shared bool) int {
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), 4)
	}
	units := int(numUnitKinds)
	if shared {
		units--
	}
	return max(1, min(workers, units))
}

// TestSpeculativeDifferential is the headline differential suite: across
// workloads × predictors × epoch counts × worker counts, RunSpeculative
// must produce a Result identical to the seed sequential builder's, with
// zero divergence and the chain count wantChains gives.
func TestSpeculativeDifferential(t *testing.T) {
	traces := specTraces(t)
	kinds := predictor.AllKinds
	epochCounts := []int{1, 2, 3, 8, 32}
	workerCounts := []int{0, 1, 2, 4, 8}
	for name, tr := range traces {
		for _, kind := range kinds {
			cfg := Config{Predictor: kind.Factory(), PredictorName: kind.String()}
			want, err := RunWith(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, epochs := range epochCounts {
				for _, workers := range workerCounts {
					var st SpecStats
					got, err := RunSpeculative(tr, cfg, SpecConfig{
						Workers: workers, Epochs: epochs, Stats: &st,
					})
					if err != nil {
						t.Fatalf("%s/%s e=%d w=%d: %v", name, kind, epochs, workers, err)
					}
					ctx := name + "/" + kind.String()
					mustEqualResults(t, ctx, got, want)
					if st.Fallback {
						t.Fatalf("%s: unexpected fallback", ctx)
					}
					if st.Diverged != 0 || st.Replayed != 0 || st.Abandoned != 0 {
						t.Fatalf("%s e=%d w=%d: spurious divergence: %+v", ctx, epochs, workers, st)
					}
					if st.Epochs == 0 {
						t.Fatalf("%s: implausible stats: %+v", ctx, st)
					}
					if want := wantChains(workers, false); st.Chains != want {
						t.Fatalf("%s w=%d: %d chains, want %d", ctx, workers, st.Chains, want)
					}
				}
			}
		}
	}
}

// TestSpeculativeDefaultEpochs runs the pass at its default epoch count
// (Epochs <= 0: four per chain), which the differential batteries, all at
// explicit counts, never reach: gcc under last-value and context at one
// and four chains.
func TestSpeculativeDefaultEpochs(t *testing.T) {
	tr := specTraces(t)["gcc"]
	for _, kind := range []predictor.Kind{predictor.KindLast, predictor.KindContext} {
		cfg := Config{Predictor: kind.Factory(), PredictorName: kind.String()}
		want, err := RunWith(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			var st SpecStats
			got, err := RunSpeculative(tr, cfg, SpecConfig{Workers: workers, Stats: &st})
			if err != nil {
				t.Fatalf("%s w=%d: %v", kind, workers, err)
			}
			mustEqualResults(t, kind.String(), got, want)
			if st.Fallback || st.Diverged != 0 || st.Epochs != 4*st.Chains {
				t.Fatalf("%s w=%d: implausible stats %+v", kind, workers, st)
			}
		}
	}
}

// TestSpeculativeShardedDifferential holds the pass to the contract it
// had when predictor categories could be split into key shards, at the one
// shard that remains: every predictor kind, global-state ones (context,
// tage) included, runs as four state units, so any worker count up to and
// past four leaves the Result byte-identical to the sequential pass and
// gets min(workers, 4) chains.
func TestSpeculativeShardedDifferential(t *testing.T) {
	traces := specTraces(t)
	for name, tr := range traces {
		for _, kind := range predictor.AllKinds {
			cfg := Config{Predictor: kind.Factory(), PredictorName: kind.String()}
			want, err := RunWith(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4, 16} {
				var st SpecStats
				got, err := RunSpeculative(tr, cfg, SpecConfig{Workers: workers, Epochs: 8, Stats: &st})
				if err != nil {
					t.Fatalf("%s/%s w=%d: %v", name, kind, workers, err)
				}
				ctx := name + "/" + kind.String()
				mustEqualResults(t, ctx, got, want)
				if st.Chains != min(workers, 4) {
					t.Fatalf("%s w=%d: %d chains, want %d", ctx, workers, st.Chains, min(workers, 4))
				}
				if st.Diverged != 0 || st.Replayed != 0 || st.Abandoned != 0 || st.Fallback {
					t.Fatalf("%s w=%d: spurious recovery: %+v", ctx, workers, st)
				}
			}
		}
	}
}

// TestSpeculativeMetamorphicEpochInvariance is the metamorphic suite:
// epoch size and checkpoint interval are execution details and must never
// change any figure of the Result.
func TestSpeculativeMetamorphicEpochInvariance(t *testing.T) {
	tr := specTraces(t)["gcc"]
	cfg := Config{Predictor: predictor.KindContext.Factory()}
	want, err := RunWith(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, epochs := range []int{1, 2, 5, 7, 16, 64, 1000} {
		for _, checkpoint := range []int{1, 2, 3, 100} {
			got, err := RunSpeculative(tr, cfg, SpecConfig{Epochs: epochs, Checkpoint: checkpoint})
			if err != nil {
				t.Fatalf("e=%d ck=%d: %v", epochs, checkpoint, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("epochs=%d checkpoint=%d changed the Result", epochs, checkpoint)
			}
		}
	}
}

// TestSpeculativeConfigMatrix covers the configuration corners that change
// which predictor calls happen: shared input/output instance, correlated
// output keys, disabled path tracking, graph recording, and a small branch
// predictor.
func TestSpeculativeConfigMatrix(t *testing.T) {
	tr := specTraces(t)["fig1"]
	configs := map[string]Config{
		"shared":     {Predictor: predictor.KindStride.Factory(), SharedInputOutput: true},
		"correlated": {Predictor: predictor.KindContext.Factory(), CorrelateOutputs: true},
		"nopaths":    {Predictor: predictor.KindLast.Factory(), DisablePaths: true},
		"graph":      {Predictor: predictor.KindContext.Factory(), GraphLimit: 500},
		"smallbr":    {Predictor: predictor.KindLast.Factory(), GShareBits: 4},
		"sharedcorr": {Predictor: predictor.KindContext.Factory(), SharedInputOutput: true, CorrelateOutputs: true},
	}
	for name, cfg := range configs {
		want, err := RunWith(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 3, 4} {
			var st SpecStats
			got, err := RunSpeculative(tr, cfg, SpecConfig{Workers: workers, Epochs: 6, Stats: &st})
			if err != nil {
				t.Fatalf("%s w=%d: %v", name, workers, err)
			}
			mustEqualResults(t, name, got, want)
			if st.Diverged != 0 {
				t.Fatalf("%s: spurious divergence: %+v", name, st)
			}
			if want := wantChains(workers, cfg.SharedInputOutput); st.Chains != want {
				t.Fatalf("%s w=%d: %d chains, want %d", name, workers, st.Chains, want)
			}
		}
	}
}

// TestSpeculativeFallback checks that a predictor without checkpoint
// support degrades to the sequential pass with identical output and the
// Fallback stat set.
func TestSpeculativeFallback(t *testing.T) {
	tr := specTraces(t)["fig1"]
	cfg := Config{
		Predictor: func() predictor.Predictor {
			return predictor.NewDelayed(predictor.NewLastValue(predictor.DefaultTableBits), 4)
		},
		PredictorName: "delayed-last",
	}
	want, err := RunWith(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var st SpecStats
	got, err := RunSpeculative(tr, cfg, SpecConfig{Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "fallback", got, want)
	if !st.Fallback {
		t.Fatal("Fallback stat not set for non-checkpointable predictor")
	}
}

// TestSpeculativeAdversarialDivergence is the adversarial suite: the chaos
// hook corrupts chain state so epochs mispredict, up to 100% of them. The
// Result must stay byte-identical, recovery must stay within the
// checkpoint replay bound, and under total corruption every unit must be
// abandoned — graceful degradation to sequential cost instead of replay
// thrash.
func TestSpeculativeAdversarialDivergence(t *testing.T) {
	tr := specTraces(t)["gcc"]
	cfg := Config{Predictor: predictor.KindContext.Factory()}
	want, err := RunWith(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}

	hooks := map[string]func(u unitKind, epoch int) bool{
		"all":         func(unitKind, int) bool { return true },
		"input-only":  func(u unitKind, _ int) bool { return u == unitInput },
		"addr-only":   func(u unitKind, _ int) bool { return u == unitAddr },
		"every-third": func(_ unitKind, e int) bool { return e%3 == 0 },
		"one-epoch":   func(_ unitKind, e int) bool { return e == 2 },
	}
	const epochs, checkpoint = 12, 3
	for name, hook := range hooks {
		for _, workers := range []int{1, 4} {
			var st SpecStats
			spec := SpecConfig{Workers: workers, Epochs: epochs, Checkpoint: checkpoint, Stats: &st}
			spec.corrupt = hook
			got, err := RunSpeculative(tr, cfg, spec)
			if err != nil {
				t.Fatalf("%s w=%d: %v", name, workers, err)
			}
			mustEqualResults(t, name, got, want)
			if st.Diverged == 0 {
				t.Fatalf("%s: chaos hook induced no divergence: %+v", name, st)
			}
			// Each recovery replays at most Checkpoint-1 committed epochs.
			if st.ReplayEpochs > st.Diverged*(checkpoint-1) {
				t.Fatalf("%s: replay bound exceeded: %+v", name, st)
			}
			if name == "all" {
				if st.Abandoned != int(numUnitKinds) {
					t.Fatalf("100%% corruption: abandoned %d of %d units: %+v", st.Abandoned, numUnitKinds, st)
				}
			}
			if name == "one-epoch" && st.Abandoned != 0 {
				t.Fatalf("single diverged epoch must not abandon a unit: %+v", st)
			}
		}
	}
}

// TestSpeculativeMalformedEvent checks error-contract parity with the
// sequential pass: same error, same global event index, regardless of
// where in the epoch structure the bad event lands.
func TestSpeculativeMalformedEvent(t *testing.T) {
	base := specTraces(t)["fig1"]
	positions := []int{0, 1, len(base.Events) / 2, len(base.Events) - 1}
	for _, pos := range positions {
		tr := &trace.Trace{
			Name:        base.Name,
			NumStatic:   base.NumStatic,
			StaticCount: base.StaticCount,
			Events:      append([]trace.Event(nil), base.Events...),
		}
		tr.Events[pos].NSrc = 3
		_, wantErr := RunWith(tr, Config{Predictor: predictor.KindLast.Factory()})
		if wantErr == nil {
			t.Fatalf("pos %d: sequential pass accepted malformed event", pos)
		}
		for _, workers := range []int{1, 4} {
			_, gotErr := RunSpeculative(tr, Config{Predictor: predictor.KindLast.Factory()},
				SpecConfig{Workers: workers, Epochs: 7})
			if gotErr == nil {
				t.Fatalf("pos %d w=%d: speculative pass accepted malformed event", pos, workers)
			}
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("pos %d w=%d: error mismatch:\n  speculative: %v\n  sequential:  %v",
					pos, workers, gotErr, wantErr)
			}
			if !errors.Is(gotErr, ErrMalformedEvent) {
				t.Fatalf("pos %d: error does not match ErrMalformedEvent: %v", pos, gotErr)
			}
		}
	}
}

// TestSpeculativeConfigErrors checks the ErrConfig taxonomy parity.
func TestSpeculativeConfigErrors(t *testing.T) {
	tr := specTraces(t)["fig1"]
	if _, err := RunSpeculative(nil, Config{Predictor: predictor.KindLast.Factory()}, SpecConfig{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil trace: err = %v, want ErrConfig", err)
	}
	if _, err := RunSpeculative(tr, Config{}, SpecConfig{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil factory: err = %v, want ErrConfig", err)
	}
	bad := Config{Predictor: func() predictor.Predictor { return predictor.NewLastValue(-1) }}
	if _, err := RunSpeculative(tr, bad, SpecConfig{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("panicking factory: err = %v, want ErrConfig", err)
	}
}

// TestSpeculativeEmptyTrace runs the degenerate cases: zero events, and
// fewer events than requested epochs.
func TestSpeculativeEmptyTrace(t *testing.T) {
	empty := &trace.Trace{Name: "empty"}
	cfg := Config{Predictor: predictor.KindLast.Factory()}
	want, err := RunWith(empty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSpeculative(empty, cfg, SpecConfig{Epochs: 16})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "empty", got, want)

	tiny := specTraces(t)["fig1"]
	tiny = &trace.Trace{
		Name: tiny.Name, NumStatic: tiny.NumStatic,
		StaticCount: tiny.StaticCount, Events: tiny.Events[:3],
	}
	want, err = RunWith(tiny, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err = RunSpeculative(tiny, cfg, SpecConfig{Epochs: 1000, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "tiny", got, want)
}

// TestSpeculativeNoGoroutineLeak verifies every path — success and
// error — reclaims its chain goroutines.
func TestSpeculativeNoGoroutineLeak(t *testing.T) {
	tr := specTraces(t)["fig1"]
	cfg := Config{Predictor: predictor.KindLast.Factory()}
	base := runtime.NumGoroutine()

	if _, err := RunSpeculative(tr, cfg, SpecConfig{Workers: 4, Epochs: 8}); err != nil {
		t.Fatal(err)
	}
	bad := &trace.Trace{
		Name: tr.Name, NumStatic: tr.NumStatic, StaticCount: tr.StaticCount,
		Events: append([]trace.Event(nil), tr.Events...),
	}
	bad.Events[7].NSrc = 3
	if _, err := RunSpeculative(bad, cfg, SpecConfig{Workers: 4}); err == nil {
		t.Fatal("expected error")
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak: %d live, baseline %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}
