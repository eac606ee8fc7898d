package main

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// Self time subtracts the union of the children, so overlapping children
// (concurrent model passes) are not subtracted twice.
func TestSelfTimesAndCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "mirror", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "core.Suite.Precompute", Start: ms(0), End: ms(60)},
		{ID: 3, Parent: 2, Name: "workloads.TraceRounds", Start: ms(10), End: ms(30)},
		{ID: 4, Parent: 2, Name: "workloads.TraceRounds", Start: ms(20), End: ms(40)},
		{ID: 5, Parent: 1, Name: "core.Suite.Run", Start: ms(60), End: ms(90)},
		{ID: 6, Parent: 5, Name: "report.render", Start: ms(80), End: ms(95)}, // runs past its parent
		{ID: 7, Name: "replay", Start: ms(100), End: ms(110)},
		{ID: 8, Parent: 7, Name: "trace.NewReader", Start: ms(100), End: ms(110)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: ms(10), 2: ms(30), 3: ms(20), 4: ms(20), 5: ms(20), 6: ms(15), 7: 0, 8: ms(10)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}

	perLayer, belowCore := layerSelf(spans, 1)
	if perLayer["core"] != ms(50) || perLayer["workloads"] != ms(40) || perLayer["report"] != ms(15) {
		t.Errorf("per-layer self = %v", perLayer)
	}
	if _, ok := perLayer["trace"]; ok {
		t.Errorf("replay span counted under the mirror: %v", perLayer)
	}
	// workloads 10..40 (the two overlap) and report 80..95, at any depth.
	if belowCore != 0.45 {
		t.Errorf("below-core share = %g, want 0.45", belowCore)
	}
}

func TestTracerTotals(t *testing.T) {
	tr := newTracer()
	a := tr.start("dpg.RunWith", "context", 0, replayOp)
	tr.end(a)
	b := tr.start("dpg.RunWith", "stride", 0, replayOp)
	tr.end(b)
	c := tr.start("dpg.RunWith", "context", 0, 0) // another operation
	tr.end(c)
	open := tr.start("dpg.RunWith", "context", 0, replayOp) // never closed
	_ = open
	sp := tr.snapshot()
	if got, want := tr.total("dpg.RunWith", "context", replayOp), sp[0].dur(); got != want {
		t.Errorf("total(context) = %v, want %v", got, want)
	}
	if got, want := tr.total("dpg.RunWith", "", replayOp), sp[0].dur()+sp[1].dur(); got != want {
		t.Errorf("total(any kind) = %v, want %v", got, want)
	}
}
