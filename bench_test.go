// Package repro's root benchmark harness: one benchmark per table and
// figure of the paper (regenerating its data series end to end), plus
// component microbenchmarks and the ablation benches DESIGN.md calls out.
//
// Figure benches run the real experiment pipeline at a reduced workload
// scale so `go test -bench=.` completes in minutes; pass the environment
// the same way cmd/figures does for full-size runs.
package repro

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// benchScale keeps the per-iteration work of the figure benchmarks modest.
const benchScale = 0.1

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		suite := core.NewSuite(core.SuiteConfig{Scale: benchScale})
		if err := suite.Run(id, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// reportEventRate reports a benchmark's throughput as millions of events
// per second over its timed loop, each iteration having processed events
// events. Call it after the loop.
func reportEventRate(b *testing.B, events int) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(events)*float64(b.N)/sec/1e6, "Mevents/s")
	}
}

// BenchmarkTable1 regenerates Table 1 (benchmark characteristics).
func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFig5 regenerates Figure 5 (overall predictability).
func BenchmarkFig5(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6 regenerates Figure 6 (generation breakdown).
func BenchmarkFig6(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7 regenerates Figure 7 (propagation breakdown).
func BenchmarkFig7(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Figure 8 (termination breakdown).
func BenchmarkFig8(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9 regenerates Figure 9 (generator-class path analysis).
func BenchmarkFig9(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Figure 10 (tree depth CDFs).
func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11 (influence CDFs).
func BenchmarkFig11(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12 regenerates Figure 12 (predictable sequences).
func BenchmarkFig12(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig13 regenerates Figure 13 (branch behaviour).
func BenchmarkFig13(b *testing.B) { runExperiment(b, "fig13") }

// --- Component microbenchmarks -------------------------------------------

// benchTrace builds one reduced gcc trace shared by the micro benches.
func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	w, _ := workloads.ByName("gcc")
	tr, err := w.TraceRounds(w.Rounds/10, 1)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// benchRunWith runs the model, failing the benchmark on error.
func benchRunWith(b *testing.B, tr *trace.Trace, cfg dpg.Config) *dpg.Result {
	b.Helper()
	res, err := dpg.RunWith(tr, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkVMExecute measures raw interpreter throughput
// in Mevents/s (one event per executed instruction).
func BenchmarkVMExecute(b *testing.B) {
	w, _ := workloads.ByName("gcc")
	prog, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	input := w.Input(w.Rounds/10, 1)
	var steps uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := vm.New(prog)
		m.SetInput(vm.SliceInput(input))
		if err := m.Run(workloads.MaxTraceLen, func(*trace.Event) {}); err != nil {
			b.Fatal(err)
		}
		steps = m.Steps()
	}
	reportEventRate(b, int(steps))
}

// BenchmarkModel measures end-to-end model throughput per predictor
// (Mevents/s).
func BenchmarkModel(b *testing.B) {
	tr := benchTrace(b)
	for _, kind := range predictor.AllKinds {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dpg.Run(tr, kind); err != nil {
					b.Fatal(err)
				}
			}
			reportEventRate(b, tr.Len())
		})
	}
}

// BenchmarkModelNoPaths isolates the cost of influence tracking.
func BenchmarkModelNoPaths(b *testing.B) {
	tr := benchTrace(b)
	for i := 0; i < b.N; i++ {
		benchRunWith(b, tr, dpg.Config{
			Predictor:     predictor.KindContext.Factory(),
			PredictorName: "context",
			DisablePaths:  true,
		})
	}
	reportEventRate(b, tr.Len())
}

// BenchmarkPredictors measures raw predictor predict+update throughput.
func BenchmarkPredictors(b *testing.B) {
	for _, kind := range predictor.AllKinds {
		b.Run(kind.String(), func(b *testing.B) {
			p := kind.New()
			for i := 0; i < b.N; i++ {
				key := uint64(i & 1023)
				v, _ := p.Predict(key)
				p.Update(key, v+uint32(i))
			}
		})
	}
}

// BenchmarkTraceEncode measures trace serialisation throughput.
func BenchmarkTraceEncode(b *testing.B) {
	tr := benchTrace(b)
	for i := 0; i < b.N; i++ {
		if err := trace.WriteAll(io.Discard, tr); err != nil {
			b.Fatal(err)
		}
	}
	reportEventRate(b, tr.Len())
}

// readAllWorkers decodes a whole trace stream, event by event, through a
// reader opened with trace.Workers(n).
func readAllWorkers(r io.Reader, n int) (*trace.Trace, error) {
	tr, err := trace.NewReader(r, trace.Workers(n))
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	t := &trace.Trace{Name: tr.Name(), NumStatic: tr.NumStatic()}
	var e trace.Event
	for {
		switch err := tr.Next(&e); err {
		case nil:
			t.Events = append(t.Events, e)
		case io.EOF:
			t.StaticCount = tr.StaticCounts()
			return t, nil
		default:
			return nil, err
		}
	}
}

// BenchmarkParallelDecode compares inline block decoding (ReadAll) against
// the decode pool at several worker counts on a multi-block stream
// (Mevents/s). The 8 KiB blocks give the pool enough
// frames to keep every worker busy.
func BenchmarkParallelDecode(b *testing.B) {
	tr := benchTrace(b)
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, tr, trace.BlockBytes(8<<10)); err != nil {
		b.Fatal(err)
	}
	stream := buf.Bytes()
	decode := func(b *testing.B, workers int) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var got *trace.Trace
			var err error
			if workers == 0 {
				got, err = trace.ReadAll(bytes.NewReader(stream))
			} else {
				got, err = readAllWorkers(bytes.NewReader(stream), workers)
			}
			if err != nil {
				b.Fatal(err)
			}
			if got.Len() != tr.Len() {
				b.Fatalf("decoded %d events, want %d", got.Len(), tr.Len())
			}
		}
		reportEventRate(b, tr.Len())
	}
	b.Run("sequential", func(b *testing.B) { decode(b, 0) })
	for _, workers := range []int{2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) { decode(b, workers) })
	}
}

// BenchmarkCompressedDecode measures decode throughput over per-block
// compressed streams: each codec decoded inline and on a pool of four
// (decompression runs inside the block workers). The ratio
// metric records compressed size as a fraction of the uncompressed stream
// — the disk-reduction number the bench JSON artifact carries.
func BenchmarkCompressedDecode(b *testing.B) {
	tr := benchTrace(b)
	var plain bytes.Buffer
	if err := trace.WriteAll(&plain, tr, trace.BlockBytes(8<<10)); err != nil {
		b.Fatal(err)
	}
	for _, codec := range trace.Codecs() {
		var buf bytes.Buffer
		if err := trace.WriteAll(&buf, tr, trace.BlockBytes(8<<10), trace.Compression(codec)); err != nil {
			b.Fatal(err)
		}
		stream := buf.Bytes()
		ratio := float64(len(stream)) / float64(plain.Len())
		decode := func(b *testing.B, workers int) {
			b.Helper()
			b.ReportAllocs()
			b.ReportMetric(ratio, "ratio")
			for i := 0; i < b.N; i++ {
				var got *trace.Trace
				var err error
				if workers == 0 {
					got, err = trace.ReadAll(bytes.NewReader(stream))
				} else {
					got, err = readAllWorkers(bytes.NewReader(stream), workers)
				}
				if err != nil {
					b.Fatal(err)
				}
				if got.Len() != tr.Len() {
					b.Fatalf("decoded %d events, want %d", got.Len(), tr.Len())
				}
			}
			reportEventRate(b, tr.Len())
		}
		b.Run(codec.String()+"/sequential", func(b *testing.B) { decode(b, 0) })
		b.Run(codec.String()+"/workers4", func(b *testing.B) { decode(b, 4) })
	}
}

// BenchmarkPipeline measures the streaming pass pipeline end to end: a
// trace file on disk through the footer probe and the sequential model
// pass (core.AnalyzeFile), against the seed path that materializes the
// whole trace first. allocs/op is the headline: the streaming rows must
// stay clear of the full-event-slice cost the materializing row pays.
func BenchmarkPipeline(b *testing.B) {
	tr := benchTrace(b)
	path := filepath.Join(b.TempDir(), "gcc.dpg")
	if err := trace.WriteFile(path, tr, trace.BlockBytes(64<<10)); err != nil {
		b.Fatal(err)
	}
	stream := func(b *testing.B, workers int) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.AnalyzeFile(path, core.WithKind(predictor.KindContext), core.WithWorkers(workers)); err != nil {
				b.Fatal(err)
			}
		}
		reportEventRate(b, tr.Len())
	}
	b.Run("materialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := os.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			full, err := readAllWorkers(f, 4)
			f.Close()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.RunTrace(full, core.WithKind(predictor.KindContext)); err != nil {
				b.Fatal(err)
			}
		}
		reportEventRate(b, tr.Len())
	})
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		b.Run(fmt.Sprintf("stream-workers%d", workers), func(b *testing.B) { stream(b, workers) })
	}
}

// BenchmarkFusedSuite measures the observer fan-out's amortization: the
// model pass alone (one experiment, one decode), the fused five-experiment
// pass (model + reuse + ILP + confidence + speculation riding one decode
// via WithObservers), and the same five experiments decoding separately —
// the pre-fusion cost this engine exists to avoid (Mevents/s).
func BenchmarkFusedSuite(b *testing.B) {
	tr := benchTrace(b)
	path := filepath.Join(b.TempDir(), "gcc.dpg")
	if err := trace.WriteFile(path, tr, trace.BlockBytes(64<<10)); err != nil {
		b.Fatal(err)
	}
	sims := func() []analysis.Observer {
		return []analysis.Observer{
			analysis.NewReuseSim("gcc", 16),
			analysis.NewSpecSweep("gcc", predictor.KindContext, analysis.SweepConfig{}),
			analysis.NewConfidenceSim(predictor.KindContext, 7),
			analysis.NewSpecSweep("gcc", predictor.KindContext,
				analysis.SweepConfig{Width: 64, MaxConfidence: 7, Penalty: 8, Thresholds: []uint8{3}}),
		}
	}
	b.Run("experiments1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.AnalyzeFile(path, core.WithKind(predictor.KindContext), core.WithWorkers(2)); err != nil {
				b.Fatal(err)
			}
		}
		reportEventRate(b, tr.Len())
	})
	b.Run("experiments5-fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.AnalyzeFile(path, core.WithKind(predictor.KindContext), core.WithWorkers(2),
				core.WithObservers(sims()...)); err != nil {
				b.Fatal(err)
			}
		}
		reportEventRate(b, tr.Len())
	})
	b.Run("experiments5-separate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.AnalyzeFile(path, core.WithKind(predictor.KindContext), core.WithWorkers(2)); err != nil {
				b.Fatal(err)
			}
			// Each experiment pays its own full decode, the pre-fusion way.
			for _, sim := range sims() {
				f, err := os.Open(path)
				if err != nil {
					b.Fatal(err)
				}
				pr, err := trace.NewReader(f, trace.Workers(2))
				if err != nil {
					b.Fatal(err)
				}
				if err := analysis.RunObservers(pr, sim); err != nil {
					b.Fatal(err)
				}
				pr.Close()
				f.Close()
			}
		}
		reportEventRate(b, tr.Len())
	})
}

// BenchmarkSpeculativePass compares the sequential model pass against the
// epoch-speculative pass (dpg.RunSpeculative) at several chain counts on
// the gcc trace with the context predictor — the heaviest predictor and
// the one the paper's headline figures use. Results are byte-identical by
// the differential battery; this benchmark records the speedup the
// speculation buys (Mevents/s).
func BenchmarkSpeculativePass(b *testing.B) {
	tr := benchTrace(b)
	cfg := dpg.Config{
		Predictor:     predictor.KindContext.Factory(),
		PredictorName: "context",
	}
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchRunWith(b, tr, cfg)
		}
		reportEventRate(b, tr.Len())
	})
	for _, workers := range []int{2, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var st dpg.SpecStats
				if _, err := dpg.RunSpeculative(tr, cfg, dpg.SpecConfig{Workers: workers, Stats: &st}); err != nil {
					b.Fatal(err)
				}
				if st.Fallback || st.Diverged != 0 {
					b.Fatalf("implausible speculation stats %+v", st)
				}
			}
			reportEventRate(b, tr.Len())
		})
	}
}

// BenchmarkGraphWorkloads measures the model pass over the graph scenario
// pack (bfs/pgr/ccp — branches on loaded adjacency values) with the
// predictors added for it (tage, ldbp), in Mevents/s; the gate
// keeps the hard-to-predict path from silently regressing.
func BenchmarkGraphWorkloads(b *testing.B) {
	for _, w := range workloads.Graph() {
		rounds := w.Rounds / 4
		if rounds < 2 {
			rounds = 2
		}
		tr, err := w.TraceRounds(rounds, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, kind := range []predictor.Kind{predictor.KindTAGE, predictor.KindLDBP} {
			b.Run(w.Name+"/"+kind.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := dpg.Run(tr, kind); err != nil {
						b.Fatal(err)
					}
				}
				reportEventRate(b, tr.Len())
			})
		}
	}
}

// --- Ablation benches (design-choice studies from DESIGN.md §5) ----------

// BenchmarkAblationSharedIO compares the paper's split input/output
// predictor tables against a single shared instance (the short-circuit
// configuration the paper avoids). The reported metric propagation% shows
// how much predictability the shared configuration overstates.
func BenchmarkAblationSharedIO(b *testing.B) {
	tr := benchTrace(b)
	for _, shared := range []bool{false, true} {
		name := "split"
		if shared {
			name = "shared"
		}
		b.Run(name, func(b *testing.B) {
			var res *dpg.Result
			for i := 0; i < b.N; i++ {
				res = benchRunWith(b, tr, dpg.Config{
					Predictor:         predictor.KindLast.Factory(),
					PredictorName:     name,
					SharedInputOutput: shared,
				})
			}
			b.ReportMetric(res.Pct(res.NodeProp()+res.ArcTotal(dpg.ArcPP)), "propagation%")
		})
	}
}

// BenchmarkAblationTableSize sweeps the stride predictor's table capacity,
// reporting how classification quality saturates with table size.
func BenchmarkAblationTableSize(b *testing.B) {
	tr := benchTrace(b)
	for _, bits := range []int{6, 10, 16} {
		bits := bits
		b.Run(fmt.Sprintf("2^%d", bits), func(b *testing.B) {
			var res *dpg.Result
			for i := 0; i < b.N; i++ {
				res = benchRunWith(b, tr, dpg.Config{
					Predictor:     func() predictor.Predictor { return predictor.NewStride(bits) },
					PredictorName: "stride",
				})
			}
			b.ReportMetric(res.Pct(res.NodeProp()+res.ArcTotal(dpg.ArcPP)), "propagation%")
		})
	}
}

// BenchmarkAblationContextOrder sweeps the context predictor's history
// length (the paper uses order 4).
func BenchmarkAblationContextOrder(b *testing.B) {
	tr := benchTrace(b)
	for _, order := range []int{1, 2, 4, 8} {
		order := order
		b.Run(fmt.Sprintf("order%d", order), func(b *testing.B) {
			var res *dpg.Result
			for i := 0; i < b.N; i++ {
				res = benchRunWith(b, tr, dpg.Config{
					Predictor: func() predictor.Predictor {
						return predictor.NewContext(predictor.DefaultTableBits, predictor.DefaultL2Bits, order)
					},
					PredictorName: "context",
				})
			}
			b.ReportMetric(res.Pct(res.NodeProp()+res.ArcTotal(dpg.ArcPP)), "propagation%")
		})
	}
}

// BenchmarkAblationGShareSize sweeps the branch predictor capacity.
func BenchmarkAblationGShareSize(b *testing.B) {
	tr := benchTrace(b)
	for _, bits := range []int{8, 12, 16} {
		bits := bits
		b.Run(fmt.Sprintf("2^%d", bits), func(b *testing.B) {
			var res *dpg.Result
			for i := 0; i < b.N; i++ {
				res = benchRunWith(b, tr, dpg.Config{
					Predictor:     predictor.KindLast.Factory(),
					PredictorName: "last-value",
					GShareBits:    bits,
				})
			}
			acc := 100 * float64(res.Branch.Correct) / float64(res.Branch.Branches)
			b.ReportMetric(acc, "gshare-acc%")
		})
	}
}

// BenchmarkAblationDelayedUpdate quantifies the paper's §3 caveat: the
// model updates predictors immediately after each prediction, whereas real
// hardware sees update delays. The reported propagation% shows how much
// classified predictability a delayed-update configuration loses.
func BenchmarkAblationDelayedUpdate(b *testing.B) {
	tr := benchTrace(b)
	for _, delay := range []int{0, 4, 16, 64} {
		delay := delay
		b.Run(fmt.Sprintf("delay%d", delay), func(b *testing.B) {
			var res *dpg.Result
			for i := 0; i < b.N; i++ {
				res = benchRunWith(b, tr, dpg.Config{
					Predictor: func() predictor.Predictor {
						return predictor.NewDelayed(predictor.NewStride(predictor.DefaultTableBits), delay)
					},
					PredictorName: "stride",
				})
			}
			b.ReportMetric(res.Pct(res.NodeProp()+res.ArcTotal(dpg.ArcPP)), "propagation%")
		})
	}
}

// BenchmarkILP measures the dataflow-limit analysis and reports the
// value-prediction speedup it finds (the paper's ref [9] headline).
func BenchmarkILP(b *testing.B) {
	tr := benchTrace(b)
	for _, kind := range predictor.Kinds {
		b.Run(kind.String(), func(b *testing.B) {
			var st analysis.ILPStats
			for i := 0; i < b.N; i++ {
				st = analysis.ILP(tr, kind)
			}
			reportEventRate(b, tr.Len())
			b.ReportMetric(st.Speedup(), "vp-speedup")
		})
	}
}

// BenchmarkReuse measures the reuse-buffer analysis throughput.
func BenchmarkReuse(b *testing.B) {
	tr := benchTrace(b)
	var st analysis.ReuseStats
	for i := 0; i < b.N; i++ {
		st = analysis.Reuse(tr, 16)
	}
	reportEventRate(b, tr.Len())
	b.ReportMetric(st.ReusePct(), "reuse%")
}

// BenchmarkCompile measures mini-C compilation speed on a representative
// program.
func BenchmarkCompile(b *testing.B) {
	src := `
		arr a[64];
		func f(x, y) { return x * y + (x >> 3); }
		func main() {
			var s = 0;
			for (var i = 0; i < 64; i = i + 1) {
				a[i] = f(i, i + 1);
				s = s + a[i];
			}
			out(s);
		}`
	for i := 0; i < b.N; i++ {
		if _, err := cc.Compile("bench", src); err != nil {
			b.Fatal(err)
		}
	}
}
