package server

import "sync"

// jobOutcome is what one analysis job produces: either the /analyze
// report payload or a typed job error.
type jobOutcome struct {
	payload *analysisPayload
	jerr    *JobError
}

// flight is one in-progress computation shared by every request that asked
// for the same (digest, predictor, model version) while it ran.
type flight struct {
	done chan struct{}
	out  jobOutcome
}

// flightGroup is a hand-rolled singleflight: the first request for a key
// becomes the leader and computes; concurrent duplicates wait on the same
// flight instead of spooling duplicate jobs through the queue.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// start returns the flight for key and whether the caller is its leader
// (and must eventually complete it).
func (g *flightGroup) start(key string) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	return f, true
}

// complete publishes the outcome, wakes every waiter, and retires the key
// so later requests start fresh (or hit the result cache).
func (g *flightGroup) complete(key string, f *flight, out jobOutcome) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	f.out = out
	close(f.done)
}

// resultCache is the bounded content-addressed result cache: key is
// digest|predictor|model-version (plus the canonical experiment list when
// one was requested), value is the finished report payload. Only
// successes are cached — a deadline or transient store failure must not
// poison later identical uploads. Eviction is FIFO by insertion order; the cache exists to absorb
// repeated identical uploads, not to be a general LRU.
type resultCache struct {
	mu    sync.Mutex
	max   int
	m     map[string]*analysisPayload
	order []string
}

func newResultCache(max int) *resultCache {
	if max < 1 {
		max = 1
	}
	return &resultCache{max: max, m: make(map[string]*analysisPayload)}
}

func (c *resultCache) get(key string) (*analysisPayload, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	return e, ok
}

func (c *resultCache) put(key string, e *analysisPayload) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; ok {
		return
	}
	for len(c.m) >= c.max {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.m, oldest)
	}
	c.m[key] = e
	c.order = append(c.order, key)
}
