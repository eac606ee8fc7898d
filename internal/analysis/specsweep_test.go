package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// specOracle is the reference timing model SpecSweep is checked against:
// one threshold, one confidence-gated predictor of its own, queried with
// separate ConfidenceOf, Predict and Update calls. It is the per-threshold
// simulator the suite ran before SpecSweep, kept verbatim as an
// independent implementation.
type specOracle struct {
	cfg       SpecConfig
	name      string
	predName  string
	pred      *predictor.Confidence
	regs      [isa.NumRegs]uint64
	mem       map[uint32]uint64
	idx       uint64
	lastCycle uint64
	specs     uint64
	misspecs  uint64
}

func newSpecOracle(name string, kind predictor.Kind, cfg SpecConfig) *specOracle {
	if cfg.MaxConfidence == 0 {
		cfg.MaxConfidence = 7
	}
	return &specOracle{
		cfg:      cfg,
		name:     name,
		predName: kind.String(),
		pred:     predictor.NewConfidence(kind.New(), 16, cfg.MaxConfidence),
		mem:      make(map[uint32]uint64),
	}
}

func (s *specOracle) Observe(e *trace.Event) {
	fetch := s.idx / uint64(s.cfg.Width)
	s.idx++
	ready := fetch
	var penalty uint64
	key := func(pc uint32, slot int) uint64 { return uint64(pc)<<2 | uint64(slot) }

	consume := func(avail uint64, k uint64, actual uint32) {
		conf := s.pred.ConfidenceOf(k)
		pv, ok := s.pred.Predict(k)
		s.pred.Update(k, actual)
		if ok && conf >= s.cfg.Threshold {
			s.specs++
			if pv == actual {
				return // speculated correctly: no wait
			}
			s.misspecs++
			penalty += s.cfg.Penalty
		}
		if avail > ready {
			ready = avail
		}
	}

	for slot := 0; slot < int(e.NSrc); slot++ {
		if e.SrcReg[slot] == 0 {
			continue
		}
		consume(s.regs[e.SrcReg[slot]], key(e.PC, slot), e.SrcVal[slot])
	}
	if isa.IsLoad(e.Op) {
		consume(s.mem[e.Addr&^3], key(e.PC, 2), e.MemVal)
	}

	done := ready + 1 + penalty
	if done > s.lastCycle {
		s.lastCycle = done
	}
	switch {
	case isa.IsStore(e.Op):
		s.mem[e.Addr&^3] = done
	case e.DstReg != isa.NoReg && e.DstReg != 0:
		s.regs[e.DstReg] = done
	}
}

func (s *specOracle) Stats() SpecStats {
	return SpecStats{
		Name: s.name, Predictor: s.predName, Config: s.cfg,
		Instructions: s.idx, Cycles: s.lastCycle,
		Speculations: s.specs, Misspeculations: s.misspecs,
	}
}

// ilpOracle is the reference dataflow-limit study SpecSweep's ILP
// timelines are checked against: a bare predictor of its own, queried
// with Predict and Update. It is the ILP simulator the suite ran before
// SpecSweep, kept verbatim as an independent implementation.
type ilpOracle struct {
	pred  predictor.Predictor
	regs  [isa.NumRegs]ilpReady
	mem   map[uint32]ilpReady
	stats ILPStats
}

// ilpReady carries the cycle a value becomes available on both timelines.
type ilpReady struct{ base, vp uint64 }

func newILPOracle(name string, kind predictor.Kind) *ilpOracle {
	return &ilpOracle{
		pred:  kind.New(),
		mem:   make(map[uint32]ilpReady),
		stats: ILPStats{Name: name, Predictor: kind.String()},
	}
}

func (s *ilpOracle) Observe(e *trace.Event) {
	s.stats.Instructions++
	var inBase, inVP uint64

	key := func(slot int) uint64 { return uint64(e.PC)<<2 | uint64(slot) }
	consume := func(r ilpReady, k uint64, actual uint32) {
		if r.base > inBase {
			inBase = r.base
		}
		pv, ok := s.pred.Predict(k)
		s.pred.Update(k, actual)
		if ok && pv == actual {
			return // predicted: contributes no wait on the VP timeline
		}
		if r.vp > inVP {
			inVP = r.vp
		}
	}

	for slot := 0; slot < int(e.NSrc); slot++ {
		if e.SrcReg[slot] == 0 {
			continue // $0 reads are immediates
		}
		consume(s.regs[e.SrcReg[slot]], key(slot), e.SrcVal[slot])
	}
	if isa.IsLoad(e.Op) {
		consume(s.mem[e.Addr&^3], key(2), e.MemVal)
	}

	doneBase := inBase + 1
	doneVP := inVP + 1
	if doneBase > s.stats.CritPathBase {
		s.stats.CritPathBase = doneBase
	}
	if doneVP > s.stats.CritPathVP {
		s.stats.CritPathVP = doneVP
	}

	switch {
	case isa.IsStore(e.Op):
		s.mem[e.Addr&^3] = ilpReady{base: doneBase, vp: doneVP}
	case e.DstReg != isa.NoReg && e.DstReg != 0:
		s.regs[e.DstReg] = ilpReady{base: doneBase, vp: doneVP}
	}
}

func (s *ilpOracle) Stats() ILPStats { return s.stats }

// oracleSweep runs one specOracle per threshold of cfg plus an ilpOracle
// over events: the six-predictor arrangement one SpecSweep replaces.
type oracleSweep struct {
	ilp   *ilpOracle
	specs []*specOracle
}

func newOracleSweep(name string, kind predictor.Kind, cfg SweepConfig) *oracleSweep {
	o := &oracleSweep{ilp: newILPOracle(name, kind)}
	for _, th := range cfg.Thresholds {
		o.specs = append(o.specs, newSpecOracle(name, kind, SpecConfig{
			Width: cfg.Width, Threshold: th, MaxConfidence: cfg.MaxConfidence, Penalty: cfg.Penalty,
		}))
	}
	return o
}

func (o *oracleSweep) Observe(e *trace.Event) {
	o.ilp.Observe(e)
	for _, s := range o.specs {
		s.Observe(e)
	}
}

func (o *oracleSweep) Stats() SweepStats {
	out := SweepStats{ILP: o.ilp.Stats(), Spec: make([]SpecStats, len(o.specs))}
	for i, s := range o.specs {
		out.Spec[i] = s.Stats()
	}
	return out
}

// tinyTrace is one workload's trace at about 2% of its default length.
func tinyTrace(t *testing.T, w *workloads.Workload) *trace.Trace {
	t.Helper()
	tr, err := w.TraceRounds(max(2, w.Rounds/50), 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSpecSweepDifferential holds SpecSweep to the oracle exactly: on
// every corpus workload at tiny scale, under every predictor kind, one
// sweep over the suite's gates equals one oracle per gate plus the ILP
// oracle, field for field, and so does a gateless sweep's ILP.
func TestSpecSweepDifferential(t *testing.T) {
	cfg := SpeculationSweep()
	for _, w := range workloads.All() {
		tr := tinyTrace(t, w)
		for _, kind := range predictor.AllKinds {
			sw := NewSpecSweep(w.Name, kind, cfg)
			ref := newOracleSweep(w.Name, kind, cfg)
			if err := ObserveTrace(tr, sw, ref); err != nil {
				t.Fatal(err)
			}
			got, want := sw.Stats(), ref.Stats()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: sweep %+v\nwant %+v", w.Name, kind, got, want)
			}
			if ilp := ILP(tr, kind); ilp != want.ILP {
				t.Errorf("%s/%s: gateless ILP %+v, want %+v", w.Name, kind, ilp, want.ILP)
			}
			if got.Spec[0].Speculations != 0 {
				t.Errorf("%s/%s: the never-speculate gate speculated %d times", w.Name, kind, got.Spec[0].Speculations)
			}
		}
	}
}

// TestSpecSweepGateSubsets checks the gates are independent timelines:
// any subset or order of thresholds, including none, reads the same
// numbers as the full sweep, and Speculate is the one-gate sweep.
func TestSpecSweepGateSubsets(t *testing.T) {
	w, _ := workloads.ByName("gcc")
	tr := tinyTrace(t, w)
	full := NewSpecSweep("gcc", predictor.KindStride, SpeculationSweep())
	if err := ObserveTrace(tr, full); err != nil {
		t.Fatal(err)
	}
	want := full.Stats()
	byTh := map[uint8]SpecStats{}
	for _, st := range want.Spec {
		byTh[st.Config.Threshold] = st
	}
	for _, ths := range [][]uint8{nil, {7, 0}, {3}, {specNever, 1}} {
		cfg := SpeculationSweep()
		cfg.Thresholds = ths
		sw := NewSpecSweep("gcc", predictor.KindStride, cfg)
		if err := ObserveTrace(tr, sw); err != nil {
			t.Fatal(err)
		}
		got := sw.Stats()
		if got.ILP != want.ILP {
			t.Errorf("gates %v: ILP %+v, want %+v", ths, got.ILP, want.ILP)
		}
		if len(got.Spec) != len(ths) {
			t.Fatalf("gates %v: %d timelines", ths, len(got.Spec))
		}
		for i, th := range ths {
			if got.Spec[i] != byTh[th] {
				t.Errorf("gates %v: t=%d %+v, want %+v", ths, th, got.Spec[i], byTh[th])
			}
		}
	}
	one := Speculate(tr, predictor.KindStride, SpecConfig{Width: 64, Threshold: 3, Penalty: 8})
	if one != byTh[3] {
		t.Errorf("Speculate %+v, want the sweep's t=3 timeline %+v", one, byTh[3])
	}
}

// TestSpecSweepRunObservers runs the sweep off a trace file with small
// blocks through RunObservers at several decode worker counts, next to
// the oracle, and requires the in-memory run's numbers every time.
func TestSpecSweepRunObservers(t *testing.T) {
	w, _ := workloads.ByName("go")
	tr := tinyTrace(t, w)
	path := filepath.Join(t.TempDir(), "go.dpg")
	if err := trace.WriteFile(path, tr, trace.BlockEvents(64)); err != nil {
		t.Fatal(err)
	}
	cfg := SpeculationSweep()
	mem := NewSpecSweep("go", predictor.KindContext, cfg)
	if err := ObserveTrace(tr, mem); err != nil {
		t.Fatal(err)
	}
	want := mem.Stats()
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			pr, err := trace.NewReader(f, trace.Workers(workers))
			if err != nil {
				t.Fatal(err)
			}
			defer pr.Close()
			sw := NewSpecSweep("go", predictor.KindContext, cfg)
			ref := newOracleSweep("go", predictor.KindContext, cfg)
			if err := RunObservers(pr, sw, ref); err != nil {
				t.Fatal(err)
			}
			if got := sw.Stats(); !reflect.DeepEqual(got, want) {
				t.Errorf("streamed sweep %+v, want %+v", got, want)
			}
			if got := ref.Stats(); !reflect.DeepEqual(got, want) {
				t.Errorf("streamed oracle %+v, want %+v", got, want)
			}
		})
	}
}

// BenchmarkSpecSweep compares the two arrangements of the speculation and
// ILP(context) experiments on gcc at seed 2 and default rounds: five
// per-threshold simulators plus the ILP study, each with its own
// context predictor, against one SpecSweep (Mevents/s, B/op).
func BenchmarkSpecSweep(b *testing.B) {
	w, _ := workloads.ByName("gcc")
	tr, err := w.TraceRounds(w.Rounds, 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		new  func() Observer
	}{
		{"sims", func() Observer { return newOracleSweep("gcc", predictor.KindContext, SpeculationSweep()) }},
		{"sweep", func() Observer { return NewSpecSweep("gcc", predictor.KindContext, SpeculationSweep()) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := ObserveTrace(tr, bc.new()); err != nil {
					b.Fatal(err)
				}
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(tr.Len())*float64(b.N)/sec/1e6, "Mevents/s")
			}
		})
	}
}
