//go:build !race

package dpg

import (
	"runtime"
	"testing"

	"repro/internal/predictor"
	"repro/internal/workloads"
)

// TestModelPassAllocsPerEvent is the allocation gate for the sequential
// model pass: in steady state it reuses value records and influence-set
// buffers, so heap allocations must not grow with trace length. Only the
// one-time setup (predictor tables, the memory map) and the amortised
// growth of the generator table may allocate. The gate runs gcc at a tenth
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
