package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// ModelVersion identifies the analysis semantics baked into this build.
// It is part of every cache key, so a model change (new pass, new
// classification rule) silently invalidates all previously cached results
// instead of serving stale ones.
const ModelVersion = "pv2-model-10"

// Config tunes the server. The zero value is usable: every field has a
// production default applied by New.
type Config struct {
	// StoreDir is where uploaded traces spool (content-addressed). Required.
	StoreDir string
	// QueueDepth bounds the job queue; admissions beyond it get 429.
	// Default 32.
	QueueDepth int
	// Workers is the number of concurrent analysis jobs. Default GOMAXPROCS.
	Workers int
	// JobTimeout is the per-job deadline, measured from admission.
	// Default 60s.
	JobTimeout time.Duration
	// MaxUploadBytes bounds one upload. Default 1 GiB.
	MaxUploadBytes int64
	// CacheEntries bounds the result cache. Default 256.
	CacheEntries int
	// StoreAttempts is the total tries per transient store operation.
	// Default 4.
	StoreAttempts int
	// StoreBackoff is the base retry delay (doubled per retry, jittered).
	// Default 5ms.
	StoreBackoff time.Duration
}

func (c *Config) fillDefaults() {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 60 * time.Second
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 1 << 30
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.StoreAttempts <= 0 {
		c.StoreAttempts = 4
	}
	if c.StoreBackoff <= 0 {
		c.StoreBackoff = 5 * time.Millisecond
	}
}

// job is one queued analysis.
type job struct {
	key         string
	path        string
	digest      string
	size        int64
	kind        predictor.Kind
	experiments []string // canonical (sorted, deduped) experiment list
	ctx         context.Context
	cancel      context.CancelFunc
	queued      time.Time
	flight      *flight
}

// Server is the dpgd core: admission, bounded queue, worker pool, cache,
// store, and lifecycle. Create with New, serve via Handler, stop with
// Shutdown.
type Server struct {
	cfg     Config
	store   *Store
	cache   *resultCache
	flights *flightGroup
	metrics *Metrics

	jobs chan *job
	wg   sync.WaitGroup // workers

	// baseCtx cancels every running job when a drain deadline forces
	// abandonment.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.RWMutex // guards draining against concurrent enqueue
	draining bool

	// beforeJob, when set, runs at the top of every job (test seam for
	// holding workers busy deterministically).
	beforeJob func(context.Context)
}

// New builds a server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	if cfg.StoreDir == "" {
		return nil, errors.New("server: Config.StoreDir is required")
	}
	s := &Server{
		cfg:     cfg,
		cache:   newResultCache(cfg.CacheEntries),
		flights: newFlightGroup(),
		jobs:    make(chan *job, cfg.QueueDepth),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.metrics = newMetrics(func() int { return len(s.jobs) }, cfg.QueueDepth)
	st, err := newStore(cfg.StoreDir, cfg.StoreAttempts, cfg.StoreBackoff, func(error) {
		s.metrics.storeRetries.Add(1)
	})
	if err != nil {
		return nil, err
	}
	s.store = st
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Metrics exposes the server's counters (the /metrics endpoint renders the
// same state as text).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Handler returns the HTTP surface: POST /analyze (the analysis report),
// plus /healthz, /readyz, and /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/analyze", s.handleUpload)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.isDraining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.metrics.write(w)
	})
	return mux
}

func (s *Server) isDraining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// analysisPayload is the JSON body of a successful analysis response.
type analysisPayload struct {
	Name         string              `json:"name"`
	Predictor    string              `json:"predictor"`
	Digest       string              `json:"digest"`
	ModelVersion string              `json:"model_version"`
	SizeBytes    int64               `json:"size_bytes"`
	Events       uint64              `json:"events"`
	Blocks       uint64              `json:"blocks"`
	Overall      analysis.OverallRow `json:"overall"`
	// Experiments carries the results of the ?experiments= fan-out, when
	// requested: every experiment rode the model's single decode of the
	// trace as a streaming observer.
	Experiments *experimentsPayload `json:"experiments,omitempty"`
}

// experimentsPayload is the multi-experiment half of a response: the
// products of the requested streaming experiments, each named by its
// core.StreamExperimentIDs id. Only the requested experiments are
// populated.
type experimentsPayload = core.StreamProducts

// analyzeResponse wraps the payload with per-request flags. The payload is
// embedded by value: encoding/json cannot unmarshal through an embedded
// pointer to an unexported type, and the integration tests round-trip this.
type analyzeResponse struct {
	analysisPayload
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced"`
}

// errorResponse is the JSON body of a failed request.
type errorResponse struct {
	Kind  string `json:"kind"`
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, kind string, err error) {
	writeJSON(w, status, errorResponse{Kind: kind, Error: err.Error()})
}

// parseKind maps the ?predictor= query parameter onto the predictor suite:
// the paper's three plus the tage and ldbp extensions.
func parseKind(name string) (predictor.Kind, error) {
	n := strings.ToLower(name)
	if n == "" || n == "last" {
		return predictor.KindLast, nil
	}
	if k, ok := predictor.KindByName(n); ok {
		return k, nil
	}
	// Single-letter tags arrive in either case (?predictor=s).
	if k, ok := predictor.KindByName(strings.ToUpper(n)); ok {
		return k, nil
	}
	return 0, fmt.Errorf("server: unknown predictor %q (want last-value, stride, context, tage, or ldbp)", name)
}

// parseExperiments canonicalises the ?experiments= query parameter: a
// comma-separated subset of the streaming experiments
// (core.StreamExperimentIDs), lowercased, deduplicated, and sorted so
// equivalent requests share one cache key.
func parseExperiments(q string) ([]string, error) {
	if strings.TrimSpace(q) == "" {
		return nil, nil
	}
	known := core.StreamExperimentIDs()
	seen := make(map[string]bool)
	var out []string
	for _, part := range strings.Split(q, ",") {
		name := strings.ToLower(strings.TrimSpace(part))
		if name == "" {
			continue
		}
		if !slices.Contains(known, name) {
			return nil, fmt.Errorf("server: unknown experiment %q (want %s)", name, strings.Join(known, ", "))
		}
		if seen[name] {
			continue
		}
		seen[name] = true
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// handleUpload is the /analyze upload path: spool → cache → singleflight →
// queue. The trace streams from the request body into the
// content-addressed store without ever being held in memory.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.metrics.rejected.Add(1)
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "request", errors.New("server: POST a BLKC trace to /analyze"))
		return
	}
	if s.isDraining() {
		s.metrics.drainedReq.Add(1)
		writeError(w, http.StatusServiceUnavailable, "draining", ErrDraining)
		return
	}
	kind, err := parseKind(r.URL.Query().Get("predictor"))
	if err != nil {
		s.metrics.rejected.Add(1)
		writeError(w, http.StatusBadRequest, "request", err)
		return
	}
	exps, err := parseExperiments(r.URL.Query().Get("experiments"))
	if err != nil {
		s.metrics.rejected.Add(1)
		writeError(w, http.StatusBadRequest, "request", err)
		return
	}

	start := time.Now()
	sp, err := s.store.Spool(r.Context(), r.Body, s.cfg.MaxUploadBytes)
	if err != nil {
		switch {
		case errors.Is(err, ErrTooLarge):
			s.metrics.rejected.Add(1)
			writeError(w, http.StatusRequestEntityTooLarge, "request", err)
		case r.Context().Err() != nil:
			// Client went away mid-upload; nothing useful to send.
			s.metrics.rejected.Add(1)
			writeError(w, statusClientClosedRequest, "canceled", err)
		default:
			je := classifyJobErr(err)
			s.metrics.jobFailed(je.Kind)
			writeError(w, je.httpStatus(), je.Kind, je)
		}
		return
	}
	defer s.store.Release(sp.Digest)
	s.metrics.uploads.Add(1)
	s.metrics.spooledBytes.Add(uint64(sp.Size))
	s.metrics.spoolHist.observe(time.Since(start))

	key := sp.Digest + "|" + kind.String() + "|" + ModelVersion
	if len(exps) > 0 {
		// The canonical experiment list keys separately from the plain
		// model run: same digest, different work, different cache entry.
		key += "|" + strings.Join(exps, ",")
	}
	if p, ok := s.cache.get(key); ok {
		s.metrics.cacheHits.Add(1)
		s.metrics.totalHist.observe(time.Since(start))
		writeJSON(w, http.StatusOK, analyzeResponse{analysisPayload: *p, Cached: true})
		return
	}
	s.metrics.cacheMisses.Add(1)

	f, leader := s.flights.start(key)
	if leader {
		if aerr := s.admit(r.Context(), key, sp, kind, exps, f); aerr != nil {
			s.flights.complete(key, f, jobOutcome{jerr: &JobError{Kind: "admission", Err: aerr}})
			switch {
			case errors.Is(aerr, ErrQueueFull):
				s.metrics.shed.Add(1)
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests, "backpressure", aerr)
			default: // ErrDraining
				s.metrics.drainedReq.Add(1)
				writeError(w, http.StatusServiceUnavailable, "draining", aerr)
			}
			return
		}
	} else {
		s.metrics.coalesced.Add(1)
	}

	select {
	case <-f.done:
	case <-r.Context().Done():
		// This waiter is gone; the flight (owned by the leader's job)
		// keeps running for anyone still waiting.
		writeError(w, statusClientClosedRequest, "canceled", r.Context().Err())
		return
	}
	out := f.out
	s.metrics.totalHist.observe(time.Since(start))
	if out.jerr != nil {
		writeError(w, out.jerr.httpStatus(), out.jerr.Kind, out.jerr)
		return
	}
	writeJSON(w, http.StatusOK, analyzeResponse{
		analysisPayload: *out.payload,
		Coalesced:       !leader,
	})
}

// statusClientClosedRequest is nginx's non-standard 499: the client
// disconnected before the response; no standard code fits better.
const statusClientClosedRequest = 499

// admit enqueues a job with explicit backpressure: a full queue fails with
// ErrQueueFull (never blocks), a draining server with ErrDraining.
func (s *Server) admit(reqCtx context.Context, key string, sp SpoolResult, kind predictor.Kind, exps []string, f *flight) error {
	jctx, jcancel := context.WithTimeout(reqCtx, s.cfg.JobTimeout)
	stop := context.AfterFunc(s.baseCtx, jcancel)
	j := &job{
		key:         key,
		path:        sp.Path,
		digest:      sp.Digest,
		size:        sp.Size,
		kind:        kind,
		experiments: exps,
		ctx:         jctx,
		cancel:      func() { stop(); jcancel() },
		queued:      time.Now(),
		flight:      f,
	}
	// The job holds its own store reference until it finishes, independent
	// of the uploading request's lifetime.
	s.store.acquire(sp.Digest)

	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		j.cancel()
		s.store.Release(sp.Digest)
		return ErrDraining
	}
	select {
	case s.jobs <- j:
		return nil
	default:
		j.cancel()
		s.store.Release(sp.Digest)
		return ErrQueueFull
	}
}

// worker drains the job queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.jobs {
		s.runJob(j)
	}
}

// runJob executes one analysis with panic isolation: a panic anywhere in
// the decode or model stack is contained to this job, classified as
// KindPanic, and the worker stays healthy.
func (s *Server) runJob(j *job) {
	s.metrics.queueHist.observe(time.Since(j.queued))
	s.metrics.inflight.Add(1)
	var out jobOutcome
	func() {
		defer func() {
			if v := recover(); v != nil {
				buf := make([]byte, 8<<10)
				n := runtime.Stack(buf, false)
				out.jerr = &JobError{
					Kind: KindPanic,
					Err:  fmt.Errorf("server: panic in job %s: %v\n%s", j.digest[:12], v, buf[:n]),
				}
			}
		}()
		if s.beforeJob != nil {
			s.beforeJob(j.ctx)
		}
		out.payload, out.jerr = s.analyze(j)
	}()
	if out.jerr == nil {
		s.cache.put(j.key, out.payload)
		s.metrics.jobsOK.Add(1)
	} else {
		s.metrics.jobFailed(out.jerr.Kind)
	}
	s.metrics.inflight.Add(-1)
	j.cancel()
	s.store.Release(j.digest)
	s.flights.complete(j.key, j.flight, out)
}

// analyze runs the streaming analysis for one job: one inline decode of
// the spooled trace feeds the model pass. Requested experiments ride that
// decode as streaming observers (core.WithObservers), so a
// multi-experiment job still reads the spooled trace exactly once.
func (s *Server) analyze(j *job) (*analysisPayload, *JobError) {
	start := time.Now()
	if err := s.store.Probe(j.ctx, j.path); err != nil {
		// classifyJobErr separates cancellation/deadline from genuine
		// store failures here.
		return nil, classifyJobErr(err)
	}
	var st trace.Stats
	opts := []core.Option{
		core.WithKind(j.kind),
		core.WithContext(j.ctx),
		core.WithTraceStats(&st),
	}
	var streams *core.Streams
	if len(j.experiments) > 0 {
		streams = core.NewStreams(j.kind, j.experiments...)
		opts = append(opts, core.WithObservers(streams.Observers()...))
	}
	s.metrics.computations.Add(1)
	res, err := core.AnalyzeFile(j.path, opts...)
	s.metrics.analyzeHist.observe(time.Since(start))
	if err != nil {
		return nil, classifyJobErr(err)
	}
	var exp *experimentsPayload
	if streams != nil {
		exp = streams.Products(res.Name)
	}
	return &analysisPayload{
		Name:         res.Name,
		Predictor:    res.Predictor,
		Digest:       j.digest,
		ModelVersion: ModelVersion,
		SizeBytes:    j.size,
		Events:       st.Events,
		Blocks:       st.Blocks,
		Overall:      analysis.Overall(res),
		Experiments:  exp,
	}, nil
}

// Shutdown drains the server: new work is refused immediately (readyz goes
// unready, uploads get 503), queued and running jobs are given until ctx's
// deadline to finish, and past the deadline every remaining job is
// cancelled through its context and awaited. The error reports whether the
// drain was clean.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: already shut down")
	}
	s.draining = true
	s.metrics.draining.Store(1)
	close(s.jobs) // safe: enqueue checks draining under the same lock
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Deadline passed with jobs still running: cancel them all and wait
	// for the workers to observe it (cancellation is plumbed to the decode
	// loops, so this converges quickly).
	s.baseCancel()
	select {
	case <-done:
		return fmt.Errorf("server: drain deadline exceeded; running jobs were cancelled: %w", ctx.Err())
	case <-time.After(10 * time.Second):
		return errors.New("server: jobs did not stop after forced cancellation")
	}
}
