package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own calls into the repository's packages. The layer is the name's
// first dot-separated part (the package: workloads, trace, predictor, dpg,
// analysis, core, report, server). Op identifies the workload operation
// the call served: the mirrored run (0), one serve request (its index),
// or the layer replay (replayOp).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0: none
	Name   string        `json:"name"`
	Kind   string        `json:"kind,omitempty"` // predictor kind, experiment id or workload name
	Op     int           `json:"op"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

const replayOp = -1

func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
// Safe for concurrent use: the suite mirror opens spans from the suite's
// worker goroutines.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id.
func (t *tracer) start(name, kind string, parent, op int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Kind: kind, Op: op, Start: now, End: -1})
	return id
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name, kind string, parent, op int, fn func() error) error {
	id := t.start(name, kind, parent, op)
	defer t.end(id)
	return fn()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// total sums the durations of the closed spans of operation op with this
// name and kind; an empty kind matches every kind.
func (t *tracer) total(name, kind string, op int) time.Duration {
	var d time.Duration
	for _, s := range t.snapshot() {
		if s.Name == name && (kind == "" || s.Kind == kind) && s.Op == op && s.End >= 0 {
			d += s.dur()
		}
	}
	return d
}

func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// selfTimes returns each closed span's self time: its duration minus the
// part of its interval that its child spans cover.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals, clipped to
// the parent span. Kids may overlap: the suite runs model passes
// concurrently.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo > cur.hi:
			total += cur.hi - cur.lo
			cur = v
		case v.hi > cur.hi:
			cur.hi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// layerSelf sums self time per layer over the spans below root (root
// itself excluded), and reports the share of root's interval that spans of
// layers other than core cover: the part the self times attribute to a
// layer beneath core's entry points.
func layerSelf(spans []span, root int) (perLayer map[string]time.Duration, belowCore float64) {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	under := func(s span) bool {
		for p := s.Parent; p != 0; p = byID[p].Parent {
			if p == root {
				return true
			}
		}
		return false
	}
	self := selfTimes(spans)
	perLayer = map[string]time.Duration{}
	var kids []span
	for _, s := range spans {
		if s.End < 0 || !under(s) {
			continue
		}
		perLayer[s.layer()] += self[s.ID]
		if s.layer() != "core" {
			kids = append(kids, s)
		}
	}
	r := byID[root]
	if r.dur() > 0 {
		belowCore = float64(covered(r, kids)) / float64(r.dur())
	}
	return perLayer, belowCore
}
