package core

import (
	"fmt"
	"slices"

	"repro/internal/analysis"
	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// This file holds the experiment products: everything the correlation,
// reuse, confidence, ILP and speculation experiments read besides the
// standard model results. The streaming experiments are one table
// (streams), which both the suite's jobs and dpgd's ?experiments= build
// their observers from. In the suite each product is one job — one
// observer set, or the correlation model, run over the workload's trace —
// so Precompute can spread them over its worker pool next to the model
// runs, every job reading the workload's one cached trace.

// productJob computes one experiment product of one workload.
type productJob struct {
	key string
	run func(t *trace.Trace) (any, error)
}

// productEntry is the singleflight slot for one memoised product.
type productEntry struct {
	done chan struct{} // closed once val and err are set
	val  any
	err  error
}

// product returns (and memoises) the product of job over the workload's
// cached trace (see traceFor), computing it at most once across
// concurrent callers. A failed computation is evicted, as in Result, so a
// later call retries instead of replaying a stale error.
func (s *Suite) product(name string, job productJob) (any, error) {
	s.mu.Lock()
	pe, ok := s.products[job.key]
	if !ok {
		pe = &productEntry{done: make(chan struct{})}
		s.products[job.key] = pe
	}
	s.mu.Unlock()
	if ok {
		<-pe.done
		return pe.val, pe.err
	}
	defer close(pe.done)
	t, err := s.traceFor(name)
	if err == nil {
		pe.val, err = job.run(t)
	}
	pe.err = err
	if err != nil {
		s.mu.Lock()
		if s.products[job.key] == pe {
			delete(s.products, job.key)
		}
		s.mu.Unlock()
	}
	return pe.val, pe.err
}

// productFor returns the product of job for one workload (see product).
func productFor[T any](s *Suite, name string, job productJob) (T, error) {
	v, err := s.product(name, job)
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// --- the streaming experiments ------------------------------------------

// StreamProducts holds, for one trace, the results of the streaming
// experiments: the experiments that ride a trace's decode as observers.
// Only the experiments asked for are set. dpgd sends it as the
// experiments half of its response.
type StreamProducts struct {
	Reuse       *analysis.ReuseStats       `json:"reuse,omitempty"`
	ILP         *analysis.ILPStats         `json:"ilp,omitempty"`
	Confidence  []analysis.ConfidencePoint `json:"confidence,omitempty"`
	Speculation []analysis.SpecStats       `json:"speculation,omitempty"`
}

// stream is one row of the streaming-experiment table: the observer the
// experiment reads under a predictor kind, and how its result lands in
// StreamProducts.
type stream struct {
	id string
	// observer builds the experiment's own observer under predictor
	// kind k. It is nil for the sweep experiments.
	observer func(k predictor.Kind) analysis.Observer
	// sweep marks the experiments read from the one SpecSweep of their
	// observer set; gates is what such an experiment adds to it. The ILP
	// study adds nothing: every sweep runs its timelines.
	sweep bool
	gates analysis.SweepConfig
	// read stores the experiment's result, read from its observer o and
	// stamped with the trace's name, in p.
	read func(o analysis.Observer, name string, p *StreamProducts)
}

var (
	reuseStream = &stream{
		id: "reuse",
		observer: func(predictor.Kind) analysis.Observer {
			return analysis.NewReuseSim("", analysis.ReuseBits)
		},
		read: func(o analysis.Observer, name string, p *StreamProducts) {
			rs := o.(*analysis.ReuseSim).Stats()
			rs.Name = name
			p.Reuse = &rs
		},
	}
	ilpStream = &stream{
		id:    "ilp",
		sweep: true,
		read: func(o analysis.Observer, name string, p *StreamProducts) {
			ilp := o.(*analysis.SpecSweep).Stats().ILP
			ilp.Name = name
			p.ILP = &ilp
		},
	}
	confidenceStream = &stream{
		id: "confidence",
		observer: func(k predictor.Kind) analysis.Observer {
			return analysis.NewConfidenceSim(k, analysis.ConfMaxLevel)
		},
		read: func(o analysis.Observer, _ string, p *StreamProducts) {
			p.Confidence = o.(*analysis.ConfidenceSim).Points()
		},
	}
	speculationStream = &stream{
		id:    "speculation",
		sweep: true,
		gates: analysis.SpeculationSweep(),
		read: func(o analysis.Observer, name string, p *StreamProducts) {
			for _, ss := range o.(*analysis.SpecSweep).Stats().Spec {
				ss.Name = name
				p.Speculation = append(p.Speculation, ss)
			}
		},
	}
	// streams is the streaming-experiment table.
	streams = []*stream{reuseStream, ilpStream, confidenceStream, speculationStream}
)

// StreamExperimentIDs lists the streaming experiments, the ids NewStreams
// accepts, in table order.
func StreamExperimentIDs() []string {
	ids := make([]string, len(streams))
	for i, e := range streams {
		ids[i] = e.id
	}
	return ids
}

// Streams is the observer set of some streaming experiments under one
// predictor kind: each experiment's own observer, and one SpecSweep for
// the sweep experiments, which carries the speculation gates only when
// the speculation experiment is among them.
type Streams struct {
	want []*stream
	obs  []analysis.Observer // obs[i] is the observer want[i] reads
	list []analysis.Observer // every observer once
}

// NewStreams builds the observers of the named streaming experiments
// under predictor kind k. It panics on an id StreamExperimentIDs does not
// list: callers validate their requests first.
func NewStreams(k predictor.Kind, ids ...string) *Streams {
	want := make([]*stream, len(ids))
	for i, id := range ids {
		j := slices.IndexFunc(streams, func(e *stream) bool { return e.id == id })
		if j < 0 {
			panic(fmt.Sprintf("core: %q is not a streaming experiment", id))
		}
		want[i] = streams[j]
	}
	return newStreams(k, want)
}

func newStreams(k predictor.Kind, want []*stream) *Streams {
	st := &Streams{want: want, obs: make([]analysis.Observer, len(want))}
	var gates analysis.SweepConfig
	for _, e := range want {
		if len(e.gates.Thresholds) > 0 {
			gates = e.gates
		}
	}
	var sweep *analysis.SpecSweep
	for i, e := range want {
		if !e.sweep {
			st.obs[i] = e.observer(k)
			st.list = append(st.list, st.obs[i])
			continue
		}
		if sweep == nil {
			sweep = analysis.NewSpecSweep("", k, gates)
			st.list = append(st.list, sweep)
		}
		st.obs[i] = sweep
	}
	return st
}

// Observers returns every observer of the set once.
func (st *Streams) Observers() []analysis.Observer { return st.list }

// Products reads every experiment's result from the events observed so
// far, stamped with the trace's name.
func (st *Streams) Products(name string) *StreamProducts {
	p := &StreamProducts{}
	for i, e := range st.want {
		e.read(st.obs[i], name, p)
	}
	return p
}

// --- the suite's product jobs ---------------------------------------------

// productJobs lists, in scheduling order, every product the suite's
// experiments read for one workload: one sweep per predictor kind (the
// ILP study, and under context the speculation gates too) and, for
// integer workloads (the only ones those experiments cover), the
// correlation model, the reuse buffer and the confidence sweep. The
// context sweep and the correlation model, the heavy jobs, go first: a
// workload's last jobs overlap the next workload's trace and model runs,
// so a heavy job at the tail raises the suite's peak memory.
func (s *Suite) productJobs(name string) []productJob {
	isInt := slices.Contains(intNames(), name)
	jobs := []productJob{sweepJob(name, predictor.KindContext)}
	if isInt {
		jobs = append(jobs, corrJob(name))
	}
	for _, k := range s.suiteKinds() {
		if k != predictor.KindContext {
			jobs = append(jobs, sweepJob(name, k))
		}
	}
	if isInt {
		jobs = append(jobs, reuseJob(name), confidenceJob(name))
	}
	return jobs
}

// streamJob runs the streaming experiments want over one workload's trace
// under predictor kind k. It returns their products, so no observer
// outlives the job.
func streamJob(name string, k predictor.Kind, want ...*stream) productJob {
	key := name + "/" + k.String()
	for _, e := range want {
		key += "/" + e.id
	}
	return productJob{key: key, run: func(t *trace.Trace) (any, error) {
		st := newStreams(k, want)
		for _, o := range st.Observers() {
			for i := range t.Events {
				o.Observe(&t.Events[i])
			}
		}
		return st.Products(name), nil
	}}
}

// sweepJob is the sweep the suite runs under predictor kind k on one
// workload: every kind's sweep yields its ILP entry, and the context
// sweep on integer workloads (the only ones the speculation experiment
// covers) also carries the speculation experiment's gates.
func sweepJob(name string, k predictor.Kind) productJob {
	if k != predictor.KindContext || !slices.Contains(intNames(), name) {
		return streamJob(name, k, ilpStream)
	}
	return streamJob(name, k, ilpStream, speculationStream)
}

// The suite's reuse and confidence experiments run under context.
func reuseJob(name string) productJob {
	return streamJob(name, predictor.KindContext, reuseStream)
}

func confidenceJob(name string) productJob {
	return streamJob(name, predictor.KindContext, confidenceStream)
}

// corrJob runs the correlation experiment's model: a second dpg model run
// with output prediction keyed by (PC, input values) instead of PC alone,
// not a streaming observer.
func corrJob(name string) productJob {
	return productJob{key: name + "/corr", run: func(t *trace.Trace) (any, error) {
		return dpg.RunWith(t, dpg.Config{
			Predictor:        predictor.KindContext.Factory(),
			PredictorName:    "context+corr",
			CorrelateOutputs: true,
		})
	}}
}
