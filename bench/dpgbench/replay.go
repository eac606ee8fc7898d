package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// keyCap bounds the recorded predictor key stream (16 bytes a record).
const keyCap = 1 << 20

// keyRecorder wraps the value predictors a model run builds, counting
// lookups and useful predictions (a value was offered and it was right)
// and keeping the first keyCap lookups, in call order, for the lookup
// replay.
type keyRecorder struct {
	lookups, hits uint64
	keys          []keyRec
	built         int
}

type keyRec struct {
	key uint64
	val uint32
	out bool // output-side instance (the model builds input, then output)
}

func (r *keyRecorder) factory(k predictor.Kind) predictor.Factory {
	return func() predictor.Predictor {
		p := &recordingPredictor{Predictor: k.New(), rec: r, out: r.built%2 == 1}
		r.built++
		return p
	}
}

type recordingPredictor struct {
	predictor.Predictor
	rec *keyRecorder
	out bool
	pv  uint32
	pok bool
}

func (p *recordingPredictor) Predict(key uint64) (uint32, bool) {
	p.pv, p.pok = p.Predictor.Predict(key)
	return p.pv, p.pok
}

// Update follows every Predict for the same key (the model updates
// immediately), so it sees the prediction it judges.
func (p *recordingPredictor) Update(key uint64, actual uint32) {
	p.rec.lookups++
	if p.pok && p.pv == actual {
		p.rec.hits++
	}
	if len(p.rec.keys) < keyCap {
		p.rec.keys = append(p.rec.keys, keyRec{key: key, val: actual, out: p.out})
	}
	p.Predictor.Update(key, actual)
}

// timedFactory builds k's predictors inside predictor.New spans under
// parent, for operation op, adding the bytes each construction allocates
// to allocated.
func timedFactory(tr *tracer, parent, op int, k predictor.Kind, allocated *uint64) predictor.Factory {
	return func() predictor.Predictor {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		id := tr.start("predictor.New", k.String(), parent, op)
		p := k.New()
		tr.end(id)
		runtime.ReadMemStats(&ms)
		*allocated += ms.TotalAlloc - before
		return p
	}
}

// sampled is one trace of the replay sample, in memory and on disk.
type sampled struct {
	t    *trace.Trace
	path string
}

// replay times each layer's public calls on the workload's inputs, under
// one "replay" span. Every input is generated and encoded, and every file
// decoded both ways; the model-level layers run on the sample, the first
// inputs until it holds sampleEvents events (scaled like the traces).
// withServer adds uploads of the sample to an in-process server.
func (b *bench) replay(ctx context.Context, tr *tracer, ins []input, m metrics, t *tally, withServer bool) error {
	root := tr.start("replay", "", 0, replayOp)
	defer tr.end(root)
	timed := func(name, kind string, fn func() error) error { return tr.timed(name, kind, root, replayOp, fn) }
	total := func(name, kind string) time.Duration { return tr.total(name, kind, replayOp) }

	dir := filepath.Join(b.work, "replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var sample []sampled
	var files []string
	var events, inSample uint64
	target := uint64(sampleEvents * b.scale)
	for _, in := range ins {
		w, ok := workloads.ByName(in.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", in.workload)
		}
		var tt *trace.Trace
		if err := timed("workloads.TraceRounds", in.workload, func() (err error) {
			tt, err = w.TraceRounds(in.rounds, in.seed)
			return err
		}); err != nil {
			return err
		}
		path := filepath.Join(dir, in.file)
		if err := timed("trace.WriteFile", in.workload, func() error { return trace.WriteFile(path, tt) }); err != nil {
			return err
		}
		files = append(files, path)
		events += uint64(len(tt.Events))
		if inSample < target {
			sample = append(sample, sampled{tt, path})
			inSample += uint64(len(tt.Events))
		}
	}
	m.setMS("workloads.trace_ms", total("workloads.TraceRounds", ""))
	m.set("workloads.events", float64(events), "count")
	m.setMS("trace.encode_ms", total("trace.WriteFile", ""))

	var size int64
	var blocks uint64
	for _, path := range files {
		var st trace.Stats
		if err := timed("trace.NewReader", "", func() (err error) { st, err = decodeFile(path, false); return err }); err != nil {
			return err
		}
		if err := timed("trace.NewParallelReader", "", func() (err error) { _, err = decodeFile(path, true); return err }); err != nil {
			return err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		size += fi.Size()
		blocks += st.Blocks
	}
	dec := total("trace.NewReader", "")
	m.setMS("trace.decode_ms", dec)
	m.setMS("trace.decode_parallel_ms", total("trace.NewParallelReader", ""))
	m.set("trace.decode_mb_per_s", float64(size)/1e6/dec.Seconds(), "MB/s")
	m.set("trace.bytes", float64(size), "bytes")
	m.set("trace.blocks", float64(blocks), "count")

	for _, k := range predictor.AllKinds {
		if err := replayKind(tr, root, k, sample, m); err != nil {
			return fmt.Errorf("replay %s: %w", k, err)
		}
	}
	m.setMS("report.render_ms", total("report.render", ""))

	// The suite's other model configurations and experiment simulators,
	// at the suite's settings; RunSpeculative is what a dpgd job runs.
	var specCPU time.Duration
	ctxCfg := dpg.Config{Predictor: predictor.KindContext.Factory(), PredictorName: predictor.KindContext.String()}
	corrCfg := ctxCfg
	corrCfg.CorrelateOutputs = true
	for _, s := range sample {
		if err := timed("dpg.RunWith", "correlation", func() error { _, err := dpg.RunWith(s.t, corrCfg); return err }); err != nil {
			return err
		}
		cpu0 := selfCPU()
		if err := timed("dpg.RunSpeculative", "context", func() error {
			_, err := dpg.RunSpeculative(s.t, ctxCfg, dpg.SpecConfig{Workers: 2})
			return err
		}); err != nil {
			return err
		}
		specCPU += selfCPU() - cpu0
		timed("analysis.ILP", "context", func() error { analysis.ILP(s.t, predictor.KindContext); return nil })
		timed("analysis.Reuse", "", func() error { analysis.Reuse(s.t, 16); return nil })
		timed("analysis.ConfidenceSweep", "context", func() error {
			analysis.ConfidenceSweep(s.t, predictor.KindContext, 7)
			return nil
		})
		timed("analysis.Speculate", "context", func() error {
			analysis.Speculate(s.t, predictor.KindContext, analysis.SpecConfig{Width: 64, Threshold: 3, MaxConfidence: 7, Penalty: 8})
			return nil
		})
	}
	m.setMS("dpg.correlation_ms", total("dpg.RunWith", "correlation"))
	m.setMS("dpg.spec2_ms", total("dpg.RunSpeculative", "context"))
	m.setMS("dpg.spec2_cpu_ms", specCPU)
	m.setMS("analysis.ilp_ms", total("analysis.ILP", ""))
	m.setMS("analysis.reuse_ms", total("analysis.Reuse", ""))
	m.setMS("analysis.confidence_ms", total("analysis.ConfidenceSweep", ""))
	m.setMS("analysis.speculation_ms", total("analysis.Speculate", ""))

	if withServer {
		if err := b.replayServer(ctx, tr, root, sample, m, t); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// replayKind runs one predictor's layer calls on the sample: an untimed
// recording pass for the lookup counts and key stream, timed model passes
// with and without influence tracking (predictor construction as child
// spans), the key-stream replay against fresh instances, and the
// streaming file analysis with its report.
func replayKind(tr *tracer, root int, k predictor.Kind, sample []sampled, m metrics) error {
	ks := k.String()
	timed := func(name string, fn func() error) error { return tr.timed(name, ks, root, replayOp, fn) }
	total := func(name string) time.Duration { return tr.total(name, ks, replayOp) }

	rec := &keyRecorder{}
	var events uint64
	for _, s := range sample {
		if _, err := dpg.RunWith(s.t, dpg.Config{Predictor: rec.factory(k), PredictorName: ks}); err != nil {
			return err
		}
		events += uint64(len(s.t.Events))
	}
	m.set("predictor.lookups."+ks, float64(rec.lookups), "count")
	m.set("predictor.hit_ratio."+ks, float64(rec.hits)/float64(rec.lookups), "ratio")

	var allocated, mallocs uint64
	var ms runtime.MemStats
	for _, s := range sample {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		id := tr.start("dpg.RunWith", ks, root, replayOp)
		_, err := dpg.RunWith(s.t, dpg.Config{Predictor: timedFactory(tr, id, replayOp, k, &allocated), PredictorName: ks})
		tr.end(id)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
	}
	for _, s := range sample {
		if err := timed("dpg.RunWith.nopaths", func() error {
			_, err := dpg.RunWith(s.t, dpg.Config{Predictor: k.Factory(), PredictorName: ks, DisablePaths: true})
			return err
		}); err != nil {
			return err
		}
	}
	model, nopaths := total("dpg.RunWith"), total("dpg.RunWith.nopaths")
	m.setMS("dpg.model_ms."+ks, model)
	m.setMS("dpg.model_nopaths_ms."+ks, nopaths)
	m.setMS("dpg.paths_ms."+ks, model-nopaths)
	m.set("dpg.allocs_per_event."+ks, float64(mallocs)/float64(events), "allocs/event")
	m.setMS("predictor.new_ms."+ks, total("predictor.New"))
	m.set("predictor.new_mb."+ks, float64(allocated)/1e6, "MB")

	in, out := k.New(), k.New()
	timed("predictor.lookup", func() error {
		for _, r := range rec.keys {
			p := in
			if r.out {
				p = out
			}
			p.Predict(r.key)
			p.Update(r.key, r.val)
		}
		return nil
	})
	m.set("predictor.lookup_ns."+ks, float64(total("predictor.lookup").Nanoseconds())/float64(len(rec.keys)), "ns")

	for _, s := range sample {
		var res *dpg.Result
		if err := timed("core.AnalyzeFile", func() (err error) {
			res, err = core.AnalyzeFile(s.path, core.WithKind(k))
			return err
		}); err != nil {
			return err
		}
		var buf bytes.Buffer
		timed("report.render", func() error { renderResult(&buf, res); return nil })
	}
	m.setMS("core.analyze_file_ms."+ks, total("core.AnalyzeFile"))
	return nil
}

// decodeFile reads every event of a trace file with the sequential or the
// concurrent block decoder (default workers).
func decodeFile(path string, parallel bool) (trace.Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.Stats{}, err
	}
	defer f.Close()
	var r interface {
		Next(*trace.Event) error
		Stats() trace.Stats
	}
	if parallel {
		pr, err := trace.NewParallelReader(f)
		if err != nil {
			return trace.Stats{}, err
		}
		defer pr.Close()
		r = pr
	} else if r, err = trace.NewReader(f); err != nil {
		return trace.Stats{}, err
	}
	var e trace.Event
	for {
		switch err := r.Next(&e); {
		case errors.Is(err, io.EOF):
			return r.Stats(), nil
		case err != nil:
			return trace.Stats{}, err
		}
	}
}

// replayServer posts the sample to an in-process server (the dpgd stack
// with its defaults), rotating the predictor, then the first upload again
// once its answer is cached, and reads the server metrics from /metrics
// around the uploads. The answers are checked like serve's.
func (b *bench) replayServer(ctx context.Context, tr *tracer, root int, sample []sampled, m metrics, t *tally) (err error) {
	srv, err := server.New(server.Config{StoreDir: filepath.Join(b.work, "replay-store")})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return errors.Join(err, srv.Shutdown(ctx))
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	defer func() {
		herr := hs.Shutdown(ctx)
		<-serveErr
		err = errors.Join(err, herr, srv.Shutdown(ctx))
	}()
	url := "http://" + ln.Addr().String()
	client := newClient(b.nproc)
	defer client.CloseIdleConnections()

	ups := make([]upload, len(sample))
	plan := make([]request, len(sample))
	for i, s := range sample {
		data, err := os.ReadFile(s.path)
		if err != nil {
			return err
		}
		ups[i] = upload{path: s.path, size: int64(len(data)), sha: sum(data), events: uint64(len(s.t.Events))}
		plan[i] = request{input: i, kind: predictor.AllKinds[i%len(predictor.AllKinds)], first: -1}
	}
	plan = append(plan, request{input: 0, kind: plan[0].kind, first: 0})
	spanFor := func(i int) func() {
		id := tr.start("server.request", plan[i].kind.String(), root, replayOp)
		return func() { tr.end(id) }
	}

	before, err := scrape(ctx, client, url)
	if err != nil {
		return err
	}
	fresh := len(sample)
	out := openLoop(ctx, client, url, plan[:fresh], ups, b.nproc, spanFor)
	out = append(out, openLoop(ctx, client, url, plan[fresh:], ups, b.nproc, func(int) func() { return spanFor(fresh) })...)
	after, err := scrape(ctx, client, url)
	if err != nil {
		return err
	}
	errs, _ := checkResponses(plan, ups, out)
	for _, e := range errs {
		t.record(e)
	}
	serverMetrics(m, before, after)
	return nil
}
