package dpg

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// prePassTraces returns a spread of traces exercising every event shape
// the pre-pass discovers: register and memory first touches, `in` D nodes,
// stores, branches, and neutral ops.
func prePassTraces(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	out := map[string]*trace.Trace{}
	for _, name := range []string{"fig1", "gcc", "com"} {
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

// TestDifferentialPrePassPredictsModelShape holds the pre-pass's
// order-insensitive discoveries exactly equal to what the sequential model
// pass produces over the same stream: node, arc, D-node, and neutral
// counts, the memory-operation populations, and the static execution
// counts.
func TestDifferentialPrePassPredictsModelShape(t *testing.T) {
	for name, tr := range prePassTraces(t) {
		pre := NewPrePass(tr.NumStatic)
		for i := range tr.Events {
			if err := pre.Observe(&tr.Events[i]); err != nil {
				t.Fatalf("%s: pre-pass event %d: %v", name, i, err)
			}
		}
		res, err := Run(tr, predictor.KindContext)
		if err != nil {
			t.Fatal(err)
		}
		checkPrePassShape(t, name, tr, pre, res)
	}
}

// TestPipelineComposesPasses feeds one in-order stream to the pre-pass and
// the model pass together, event by event, and checks both see every
// event: the pre-pass's counts match the model's Result, and a malformed
// event is then rejected by both.
func TestPipelineComposesPasses(t *testing.T) {
	for name, tr := range prePassTraces(t) {
		pre := NewPrePass(tr.NumStatic)
		b, err := NewBuilder(tr.Name, tr.StaticCount, Config{Predictor: predictor.KindLast.Factory()})
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr.Events {
			if err := pre.Observe(&tr.Events[i]); err != nil {
				t.Fatalf("%s: pre-pass event %d: %v", name, i, err)
			}
			if err := b.Observe(&tr.Events[i]); err != nil {
				t.Fatalf("%s: model event %d: %v", name, i, err)
			}
		}
		bad := trace.Event{Op: 255}
		if err := pre.Observe(&bad); !errors.Is(err, ErrMalformedEvent) {
			t.Errorf("%s: pre-pass accepted a malformed event: %v", name, err)
		}
		if err := b.Observe(&bad); !errors.Is(err, ErrMalformedEvent) {
			t.Errorf("%s: model pass accepted a malformed event: %v", name, err)
		}
		res, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		checkPrePassShape(t, name, tr, pre, res)
	}
}

// checkPrePassShape compares the pre-pass's discoveries over tr with the
// model pass's Result for the same stream.
func checkPrePassShape(t *testing.T, name string, tr *trace.Trace, pre *PrePass, res *Result) {
	t.Helper()
	st := pre.Stats()
	if st.Events != res.Nodes {
		t.Errorf("%s: pre-pass events %d, model nodes %d", name, st.Events, res.Nodes)
	}
	if st.Arcs != res.Arcs {
		t.Errorf("%s: pre-pass arcs %d, model arcs %d", name, st.Arcs, res.Arcs)
	}
	if st.DNodes != res.DNodes {
		t.Errorf("%s: pre-pass D nodes %d, model D nodes %d", name, st.DNodes, res.DNodes)
	}
	if st.NeutralNodes != res.NeutralNodes {
		t.Errorf("%s: pre-pass neutral %d, model neutral %d", name, st.NeutralNodes, res.NeutralNodes)
	}
	if st.Loads != res.Addr.Loads || st.Stores != res.Addr.Stores {
		t.Errorf("%s: pre-pass mem %d/%d, model %d/%d", name, st.Loads, st.Stores, res.Addr.Loads, res.Addr.Stores)
	}
	if !reflect.DeepEqual(pre.StaticCounts(), tr.StaticCount) {
		t.Errorf("%s: pre-pass static counts diverge from the trace's", name)
	}
	if st.DistinctPCs == 0 || int(st.MaxPC) >= tr.NumStatic {
		t.Errorf("%s: PC universe implausible: distinct=%d max=%d static=%d",
			name, st.DistinctPCs, st.MaxPC, tr.NumStatic)
	}
}

// TestPrePassRejectsMalformed mirrors the model pass's validation: the
// same out-of-range events must be rejected with ErrMalformedEvent.
func TestPrePassRejectsMalformed(t *testing.T) {
	bad := []trace.Event{
		{Op: 255},                              // invalid opcode
		{Op: 0, NSrc: 3},                       // too many sources
		{Op: 0, NSrc: 1, SrcReg: [2]uint8{99}}, // source register range
		{Op: 0, DstReg: 77},                    // destination register range
		{Op: 0, PC: 1000},                      // pc past static table
	}
	p := NewPrePass(8)
	m, err := newModelPass("t", make([]uint64, 8), Config{Predictor: predictor.KindLast.Factory()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range bad {
		perr := p.Observe(&bad[i])
		merr := m.Observe(&bad[i])
		if !errors.Is(perr, ErrMalformedEvent) {
			t.Errorf("event %d: pre-pass err = %v, want ErrMalformedEvent", i, perr)
		}
		if (perr == nil) != (merr == nil) {
			t.Errorf("event %d: pre-pass and model pass disagree (%v vs %v)", i, perr, merr)
		}
	}
	if st := p.Stats(); st.Events != 0 {
		t.Errorf("rejected events leaked into the pre-pass: %+v", st)
	}
}
