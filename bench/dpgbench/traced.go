package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// runTraced is the traced run of one workload. After one set-up it runs
// the workload once untraced as the end-to-end run does, then mirrors the
// same library calls in-process with a span around each (the "mirror"
// span), and finally replays each layer's public calls on the workload's
// own inputs (the "replay" span). Per-layer metrics come only from these
// spans and from counters read at the same call boundaries.
func (b *bench) runTraced(ctx context.Context, w *workload, t *tally) (*runResult, error) {
	tr := newTracer()
	m := metrics{}
	if w.serve {
		p, _, err := b.setupServe(ctx, w, 1)
		if err != nil {
			return nil, err
		}
		s, err := b.serveLoad(ctx, p, tr, t)
		if err != nil {
			return nil, err
		}
		m.set("trace_overhead_ratio", median(s.latencies)/s.untracedP50, "ratio")
		m.set("mirror.cpu_per_wall", s.cpu.Seconds()/s.wall.Seconds(), "ratio")
		serverMetrics(m, s.before, s.after)
		if err := b.replay(ctx, tr, p.inputs, m, t, false); err != nil {
			return nil, err
		}
		r := tracedResult(w, tr, m, t)
		noteLateness(r, s.lateMax)
		return r, nil
	}

	p, err := b.setup(ctx, w, 0)
	if err != nil {
		return nil, err
	}
	check := b.verifier(ctx, w, p, t)
	argv := w.command(b, p.dir)
	child, err := runChild(ctx, b.repo, argv[0], argv[1:]...)
	if err == nil {
		err = check(child.stdout)
	}
	t.record(err)

	// The mirror's layer spans are only those the public API lets the
	// benchmark open: trace generation through TraceSource (suite) and
	// predictor construction through WithPredictor (bigtrace).
	cpu0 := selfCPU()
	root := tr.start("mirror", "", 0, 0)
	out, err := b.mirror(ctx, w, p, tr, root)
	tr.end(root)
	cpu := selfCPU() - cpu0
	if err == nil && !bytes.Equal(out, child.stdout) {
		err = fmt.Errorf("in-process mirror printed %d bytes (sha256 %s), %s printed %d (sha256 %s)",
			len(out), sum(out), filepath.Base(argv[0]), len(child.stdout), sum(child.stdout))
	}
	t.record(err)
	wall := tr.get(root).dur()
	m.set("trace_overhead_ratio", wall.Seconds()/child.wall.Seconds(), "ratio")
	m.set("mirror.cpu_per_wall", cpu.Seconds()/wall.Seconds(), "ratio")

	if err := b.replay(ctx, tr, p.inputs, m, t, true); err != nil {
		return nil, err
	}
	return tracedResult(w, tr, m, t), nil
}

// tracedResult adds the span-derived metrics and the self-time tables.
func tracedResult(w *workload, tr *tracer, m metrics, t *tally) *runResult {
	spans := tr.snapshot()
	roots := map[string]span{}
	for _, s := range spans {
		if s.Parent == 0 {
			roots[s.Name] = s
		}
	}
	r := newRunResult(w.name, true, t)
	r.Metrics = m
	r.Spans = spans
	r.SelfMS = map[string]map[string]float64{}
	for _, phase := range []string{"mirror", "replay"} {
		perLayer, belowCore := layerSelf(spans, roots[phase].ID)
		self := map[string]float64{}
		for l, d := range perLayer {
			self[l] = float64(d) / float64(time.Millisecond)
		}
		r.SelfMS[phase] = self
		if phase == "mirror" {
			m.setMS("mirror.wall_ms", roots[phase].dur())
			// core's calls hide the model passes and the experiments inside
			// them, so most of a command's mirror is core self time; the
			// replay is where each layer gets its own spans.
			r.note("mirror below_core_share %.3f (the part of the mirror spans of other layers than core cover)", belowCore)
		}
	}
	// The mirror's own calls, summed by name and kind in first-call order:
	// Precompute and each experiment for the suites, each predictor's
	// analysis for bigtrace, each predictor's requests for serve.
	var calls []string
	callMS := map[string]float64{}
	for _, s := range spans {
		if s.Parent != roots["mirror"].ID || s.End < 0 {
			continue
		}
		c := strings.TrimSpace(s.Name + " " + s.Kind)
		if _, ok := callMS[c]; !ok {
			calls = append(calls, c)
		}
		callMS[c] += float64(s.dur()) / float64(time.Millisecond)
	}
	for _, c := range calls {
		r.note("mirror call %s ms %s", c, fmtFloat(callMS[c]))
	}
	return r
}

// mirror repeats a command-line workload's run in-process through the
// library calls its command makes, with a span around each, and returns
// what the command prints.
func (b *bench) mirror(ctx context.Context, w *workload, p *prepared, tr *tracer, root int) ([]byte, error) {
	var buf bytes.Buffer
	if w.name == "bigtrace" {
		// dpgrun -trace FILE -all: one streaming analysis per predictor.
		path := filepath.Join(p.dir, p.inputs[0].file)
		for i, k := range predictor.AllKinds {
			var ps dpg.PreStats
			var st trace.Stats
			var allocated uint64
			id := tr.start("core.AnalyzeFile", k.String(), root, 0)
			res, err := core.AnalyzeFile(path, core.WithPredictor(k.String(), timedFactory(tr, id, 0, k, &allocated)),
				core.WithWorkers(0), core.WithContext(ctx), core.WithPreStats(&ps), core.WithTraceStats(&st))
			tr.end(id)
			if err != nil {
				return nil, err
			}
			tr.timed("report.render", k.String(), root, 0, func() error {
				if i == 0 {
					fmt.Fprintf(&buf, "trace %s: %d dynamic instructions, %d static\n\n", res.Name, ps.Events, len(ps.StaticCount))
				}
				renderResult(&buf, res)
				return nil
			})
		}
		return buf.Bytes(), nil
	}

	// figures: the suite, precomputed in parallel, then every experiment in
	// order. Trace generation (suite) runs inside the model passes; its
	// spans hang under whichever phase is running.
	var phase atomic.Int64
	cfg := core.SuiteConfig{Scale: b.scale, Seed: b.seed, Parallel: b.nproc}
	if w.name == "suite-tracedir" {
		cfg.TraceFile = core.TraceDir(p.dir)
	} else {
		cfg.TraceSource = func(name string, rounds int, seed uint64) (*trace.Trace, error) {
			wl, ok := workloads.ByName(name)
			if !ok {
				return nil, fmt.Errorf("unknown workload %q", name)
			}
			id := tr.start("workloads.TraceRounds", name, int(phase.Load()), 0)
			defer tr.end(id)
			return wl.TraceRounds(rounds, seed)
		}
	}
	s := core.NewSuite(cfg)
	if b.nproc > 1 {
		id := tr.start("core.Suite.Precompute", "", root, 0)
		phase.Store(int64(id))
		err := s.Precompute()
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	for _, exp := range core.ExperimentIDs() {
		id := tr.start("core.Suite.Run", exp, root, 0)
		phase.Store(int64(id))
		err := s.Run(exp, &buf)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", exp, err)
		}
	}
	return buf.Bytes(), nil
}
