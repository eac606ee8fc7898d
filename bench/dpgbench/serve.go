package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/predictor"
)

// maxLate is how late the request generator may hand a request over
// before the run's latencies stop meaning what they claim.
const maxLate = 50 * time.Millisecond

// request is one planned upload.
type request struct {
	due   time.Duration // when it is due, from the start of the plan
	input int           // index into the uploads
	kind  predictor.Kind
	first int // the earlier request this one repeats, or -1
}

// planRequests lays out n requests at a fixed rate. The loop is open: due
// times never depend on responses. The schedule is the same for every
// seed, which changes the traces uploaded, not the mix, so runs at
// different seeds load the server alike. Fresh requests stride through
// the inputs, rotating the predictor so every (input, predictor) pair is
// distinct; every repeatEvery-th request instead repeats the fresh request
// made two repeat periods earlier (long since answered, so cached).
func planRequests(n, inputs int, rate float64) []request {
	plan := make([]request, n)
	fresh := 0
	for i := range plan {
		r := request{due: time.Duration(float64(i) / rate * float64(time.Second)), first: -1}
		if i%repeatEvery == repeatEvery-1 {
			j := max(i-2*repeatEvery+1, 0)
			r.input, r.kind, r.first = plan[j].input, plan[j].kind, j
		} else {
			r.input = fresh * inputStride % inputs
			r.kind = predictor.AllKinds[(fresh+fresh/inputs)%len(predictor.AllKinds)]
			fresh++
		}
		plan[i] = r
	}
	return plan
}

// inputStride spreads consecutive fresh requests over the inputs; it is
// coprime with the thirty serve inputs, so a cycle visits every one.
const inputStride = 7

// upload is one trace file the serve workload posts.
type upload struct {
	path   string
	size   int64
	sha    string
	events uint64
}

func uploadsFor(p *prepared) ([]upload, error) {
	ups := make([]upload, len(p.inputs))
	for i, in := range p.inputs {
		path := filepath.Join(p.dir, in.file)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		ups[i] = upload{path: path, size: int64(len(data)), sha: sum(data), events: p.events[i]}
	}
	return ups, nil
}

// response is what one request got back.
type response struct {
	latency time.Duration // from the due time to the end of the response
	late    time.Duration // how late the generator handed the request over
	status  int
	body    []byte
	err     error
}

// newClient opens at most conns connections to the server.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// openLoop posts the planned requests to url from one generator over at
// most conns connections. Each request is timed from its due time, so
// waiting for a busy connection counts as latency; the generator itself
// never waits for a connection, and its own lateness is reported per
// request. Due times are taken relative to plan[0]. When spanFor is set,
// each request runs inside the span it opens (it returns the closer).
func openLoop(ctx context.Context, client *http.Client, url string, plan []request, ups []upload, conns int, spanFor func(i int) func()) []response {
	out := make([]response, len(plan))
	if len(plan) == 0 {
		return out
	}
	start := time.Now()
	base := plan[0].due
	dueAt := func(i int) time.Time { return start.Add(plan[i].due - base) }

	send := func(i int) response {
		r := plan[i]
		if spanFor != nil {
			defer spanFor(i)()
		}
		u := ups[r.input]
		f, err := os.Open(u.path)
		if err != nil {
			return response{err: err}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/analyze?predictor="+r.kind.String(), f)
		if err != nil {
			f.Close()
			return response{err: err}
		}
		req.ContentLength = u.size
		resp, err := client.Do(req) // closes f
		if err != nil {
			return response{err: err, latency: time.Since(dueAt(i))}
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		return response{status: resp.StatusCode, body: body, err: err, latency: time.Since(dueAt(i))}
	}

	// The queue holds every request, so handing one over never blocks.
	queue := make(chan int, len(plan))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				out[i] = send(i)
			}
		}()
	}
	lates := make([]time.Duration, len(plan))
	sent := 0
	for i := range plan {
		if d := time.Until(dueAt(i)); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if ctx.Err() != nil {
			break
		}
		lates[i] = time.Since(dueAt(i))
		queue <- i
		sent++
	}
	close(queue)
	wg.Wait()
	for i := range out {
		out[i].late = lates[i]
		if i >= sent {
			out[i].err = fmt.Errorf("not sent: %v", ctx.Err())
		}
	}
	return out
}

// reply is the part of a /analyze answer the checks read.
type reply struct {
	Predictor string          `json:"predictor"`
	Digest    string          `json:"digest"`
	Events    uint64          `json:"events"`
	Overall   json.RawMessage `json:"overall"`
}

// checkResponses checks every answer: HTTP 200, the digest of what was
// uploaded, the trace's event count, the requested predictor, and for a
// repeat the same overall figures as the first answer. It returns one
// result per request and each answer's overall figures.
func checkResponses(plan []request, ups []upload, out []response) (errs []error, overall []json.RawMessage) {
	errs = make([]error, len(plan))
	overall = make([]json.RawMessage, len(plan))
	for i, r := range plan {
		errs[i] = func() error {
			o := out[i]
			if o.err != nil {
				return o.err
			}
			if o.status != http.StatusOK {
				return fmt.Errorf("HTTP %d: %s", o.status, bytes.TrimSpace(o.body))
			}
			var rep reply
			if err := json.Unmarshal(o.body, &rep); err != nil {
				return fmt.Errorf("decode answer: %w", err)
			}
			u := ups[r.input]
			switch {
			case rep.Digest != u.sha:
				return fmt.Errorf("digest %s, uploaded %s", rep.Digest, u.sha)
			case rep.Events != u.events:
				return fmt.Errorf("%d events, trace has %d", rep.Events, u.events)
			case rep.Predictor != r.kind.String():
				return fmt.Errorf("predictor %s, requested %s", rep.Predictor, r.kind)
			}
			overall[i] = rep.Overall
			if r.first >= 0 && overall[r.first] != nil && !bytes.Equal(rep.Overall, overall[r.first]) {
				return fmt.Errorf("repeat of request %d answered %s, first answer %s", r.first, rep.Overall, overall[r.first])
			}
			return nil
		}()
	}
	return errs, overall
}

// spotCheck recomputes one answer per predictor in-process with
// core.AnalyzeFile and compares the overall figures. Each comparison is a
// checked operation; a mismatch also fails the request it checked.
func spotCheck(plan []request, ups []upload, errs []error, overall []json.RawMessage, t *tally) {
	for _, k := range predictor.AllKinds {
		for i, r := range plan {
			if r.kind != k || r.first >= 0 || errs[i] != nil {
				continue
			}
			err := func() error {
				res, err := core.AnalyzeFile(ups[r.input].path, core.WithKind(k))
				if err != nil {
					return err
				}
				want, err := json.Marshal(analysis.Overall(res))
				if err != nil {
					return err
				}
				if !bytes.Equal(want, overall[i]) {
					return fmt.Errorf("request %d (%s): dpgd answered %s, local AnalyzeFile %s", i, k, overall[i], want)
				}
				return nil
			}()
			if err != nil {
				errs[i] = err
			}
			t.record(err)
			break
		}
	}
}

// runServe is one untraced run of the serve workload.
func (b *bench) runServe(ctx context.Context, w *workload, t *tally) (*runResult, error) {
	p, setups, err := b.setupServe(ctx, w, b.setupReps)
	if err != nil {
		return nil, err
	}
	load, err := b.serveLoad(ctx, p, nil, t)
	if err != nil {
		return nil, err
	}
	r := newRunResult(w.name, false, t)
	r.Metrics.set("setup_s", median(setups), "s")
	r.Metrics.set("latency_p50_ms", median(load.latencies)*1e3, "ms")
	r.Metrics.set("cpu_ms", load.cpu.Seconds()*1e3/float64(load.requests), "ms")
	r.Metrics.set("rss_mb", load.rssMB, "MB")
	// Only serve has enough operations for a tail; it is reported here
	// rather than as a metric every workload would have to carry.
	pct, tail := tailPercentile(load.latencies)
	r.note("latency_p%g_ms %s (%d requests at %g req/s over %d connections, %d beyond it)",
		pct, fmtFloat(tail*1e3), len(load.latencies), serveRate, b.nproc, beyond(load.latencies, tail))
	r.note("cpu_ms is dpgd CPU per request; rss_mb is p90 of %d RSS samples; setup_s is the median of %d set-ups",
		load.rssSamples, len(setups))
	noteLateness(r, load.lateMax)
	return r, nil
}

// beyond counts the samples above v.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// noteLateness records how late the request generator ran and invalidates
// the run past maxLate.
func noteLateness(r *runResult, late time.Duration) {
	r.note("gen_late_max_ms %.3f", late.Seconds()*1e3)
	if late > maxLate {
		r.invalidate("request generator ran %v late (limit %v): run invalid", late, maxLate)
	}
}

// setupServe sets up reps times and keeps the last set-up's server; the
// earlier servers are stopped as soon as the next set-up has been timed.
func (b *bench) setupServe(ctx context.Context, w *workload, reps int) (*prepared, []float64, error) {
	var p *prepared
	var setups []float64
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		next, err := b.setup(ctx, w, rep)
		if err != nil {
			if p != nil {
				p.server.stop()
			}
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if p != nil {
			if _, err := p.server.stop(); err != nil {
				next.server.stop()
				return nil, nil, err
			}
		}
		p = next
	}
	return p, setups, nil
}

// served is what one serve load phase measured.
type served struct {
	latencies     []float64 // seconds, passing requests only
	untracedP50   float64   // traced load only: median latency of the untraced half, seconds
	lateMax       time.Duration
	requests      int
	wall          time.Duration // from the first request to the server's exit
	cpu           time.Duration // dpgd's CPU time over its life
	rssMB         float64       // p90 of dpgd's resident set sampled during the load
	rssSamples    int
	before, after map[string]float64 // /metrics around the load
}

// serveLoad drives the prepared server with the open loop for the run's
// window, then stops the server and checks every answer. With a tracer,
// the first half of the window runs untraced and the second half, under a
// "mirror" span, records a server.request span per request; latencies
// then cover the traced half only, and untracedP50 the first.
func (b *bench) serveLoad(ctx context.Context, p *prepared, tr *tracer, t *tally) (s served, err error) {
	defer func() {
		if _, serr := p.server.stop(); serr != nil && err == nil {
			err = serr
		}
	}()
	ups, err := uploadsFor(p)
	if err != nil {
		return s, err
	}
	client := newClient(b.nproc)
	defer client.CloseIdleConnections()
	n := max(int(serveRate*b.window.Seconds()), 1)
	plan := planRequests(n, len(ups), serveRate)
	if s.before, err = scrape(ctx, client, p.server.url); err != nil {
		return s, err
	}
	var out []response
	split := 0
	start := time.Now()
	stopRSS := sampleRSS(p.server.cmd.Process.Pid, 20*time.Millisecond)
	if tr == nil {
		out = openLoop(ctx, client, p.server.url, plan, ups, b.nproc, nil)
	} else {
		split = n / 2
		out = openLoop(ctx, client, p.server.url, plan[:split], ups, b.nproc, nil)
		root := tr.start("mirror", "", 0, 0)
		out = append(out, openLoop(ctx, client, p.server.url, plan[split:], ups, b.nproc, func(i int) func() {
			id := tr.start("server.request", plan[split+i].kind.String(), root, split+i)
			return func() { tr.end(id) }
		})...)
		tr.end(root)
	}
	rss := stopRSS()
	s.rssMB, s.rssSamples = rssHigh(rss), len(rss)
	if s.after, err = scrape(ctx, client, p.server.url); err != nil {
		return s, err
	}
	if s.cpu, err = p.server.stop(); err != nil {
		return s, err
	}
	s.wall = time.Since(start)

	errs, overall := checkResponses(plan, ups, out)
	spotCheck(plan, ups, errs, overall, t)
	s.requests = n
	for i, o := range out {
		t.record(errs[i])
		s.lateMax = max(s.lateMax, o.late)
		if errs[i] == nil && i >= split {
			s.latencies = append(s.latencies, o.latency.Seconds())
		}
	}
	if tr != nil {
		var first []float64
		for i, o := range out[:split] {
			if errs[i] == nil {
				first = append(first, o.latency.Seconds())
			}
		}
		s.untracedP50 = median(first)
	}
	return s, nil
}

// serverMetrics derives the server layer's metrics from two /metrics
// scrapes: mean stage latencies from the histogram sums and counts, and
// counter deltas.
func serverMetrics(m metrics, before, after map[string]float64) {
	d := func(k string) float64 { return after[k] - before[k] }
	mean := func(h string) float64 {
		if n := d(h + "_count"); n > 0 {
			return d(h+"_sum") / n * 1e3
		}
		return 0
	}
	m.set("server.spool_ms", mean("dpgd_stage_spool_seconds"), "ms")
	m.set("server.queue_wait_ms", mean("dpgd_stage_queue_wait_seconds"), "ms")
	m.set("server.analyze_ms", mean("dpgd_stage_analyze_seconds"), "ms")
	m.set("server.total_ms", mean("dpgd_stage_total_seconds"), "ms")
	hits, misses := d("dpgd_cache_hits_total"), d("dpgd_cache_misses_total")
	m.set("server.cache_hit_ratio", hits/(hits+misses), "ratio")
	m.set("server.computations", d("dpgd_computations_total"), "count")
	m.set("server.shed", d("dpgd_jobs_shed_total"), "count")
	m.set("server.degraded_jobs", d("dpgd_jobs_degraded_total"), "count")
	m.set("server.spec_jobs", d("dpgd_spec_jobs_total"), "count")
	m.set("server.spec_diverged", d("dpgd_spec_diverged_total"), "count")
}
