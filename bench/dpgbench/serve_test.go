package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/predictor"
)

func TestPlanRequests(t *testing.T) {
	const n, inputs = 108, 30
	plan := planRequests(n, inputs, 6)
	type pair struct {
		input int
		kind  predictor.Kind
	}
	seen := map[pair]bool{}
	kinds := map[predictor.Kind]int{}
	repeats := 0
	for i, r := range plan {
		if want := time.Duration(float64(i) / 6 * float64(time.Second)); r.due != want {
			t.Errorf("request %d due at %v, want %v (fixed rate)", i, r.due, want)
		}
		p := pair{r.input, r.kind}
		if r.first >= 0 {
			repeats++
			if f := plan[r.first]; r.first >= i || f.first >= 0 || f.input != r.input || f.kind != r.kind {
				t.Errorf("request %d repeats %d, which is not an earlier fresh request for the same pair", i, r.first)
			}
			continue
		}
		if seen[p] {
			t.Errorf("request %d: fresh pair %v already requested", i, p)
		}
		seen[p] = true
		kinds[r.kind]++
	}
	if repeats != n/repeatEvery {
		t.Errorf("%d repeats in %d requests, want %d", repeats, n, n/repeatEvery)
	}
	for _, k := range predictor.AllKinds {
		if kinds[k] < (n-repeats)/len(predictor.AllKinds)-1 {
			t.Errorf("predictor %s requested %d times of %d: not rotating", k, kinds[k], n-repeats)
		}
	}
}

// The open loop keeps to its schedule whatever the server does, opens at
// most conns connections, and times every request from its due time: with
// one slow connection, later requests wait and their latency shows it.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const conns, hold = 2, 60 * time.Millisecond
	var inflight, peak atomic.Int64
	var mu sync.Mutex
	remotes := map[string]bool{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		remotes[r.RemoteAddr] = true
		mu.Unlock()
		n := inflight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(hold)
		inflight.Add(-1)
		w.Write([]byte("{}"))
	}))
	defer srv.Close()

	path := filepath.Join(t.TempDir(), "up.dpg")
	if err := os.WriteFile(path, []byte("trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	ups := []upload{{path: path, size: 5}}
	// Twelve requests due every 10 ms: far faster than two connections
	// holding each request 60 ms can serve.
	plan := make([]request, 12)
	for i := range plan {
		plan[i] = request{due: time.Duration(i) * 10 * time.Millisecond, first: -1}
	}
	client := newClient(conns)
	defer client.CloseIdleConnections()
	var spans atomic.Int64
	out := openLoop(context.Background(), client, srv.URL, plan, ups, conns, func(int) func() {
		spans.Add(1)
		return func() {}
	})

	if got := peak.Load(); got > conns {
		t.Errorf("%d requests in flight at once, want at most %d", got, conns)
	}
	if len(remotes) > conns {
		t.Errorf("%d client connections, want at most %d", len(remotes), conns)
	}
	if spans.Load() != int64(len(plan)) {
		t.Errorf("%d spans for %d requests", spans.Load(), len(plan))
	}
	for i, o := range out {
		if o.err != nil || o.status != http.StatusOK {
			t.Fatalf("request %d: %v, status %d", i, o.err, o.status)
		}
		if o.late > maxLate {
			t.Errorf("request %d handed over %v late: the generator must not wait for connections", i, o.late)
		}
		if o.latency < hold {
			t.Errorf("request %d latency %v, shorter than the server's %v", i, o.latency, hold)
		}
	}
	// Served two at a time, the last request finishes after six rounds of
	// 60 ms (360 ms) but was due at 110 ms: it waited about 250 ms.
	if last := out[len(out)-1].latency; last < 200*time.Millisecond {
		t.Errorf("last request latency %v: the wait for a connection was not counted", last)
	}
}

func TestCheckResponses(t *testing.T) {
	ups := []upload{{sha: "abc", events: 10}}
	plan := []request{
		{input: 0, kind: predictor.KindLast, first: -1},
		{input: 0, kind: predictor.KindLast, first: 0},
		{input: 0, kind: predictor.KindStride, first: -1},
		{input: 0, kind: predictor.KindLast, first: 0},
	}
	ok := `{"predictor":"last-value","digest":"abc","events":10,"overall":{"NodeGen":1}}`
	out := []response{
		{status: 200, body: []byte(ok)},
		{status: 200, body: []byte(ok)},
		{status: 200, body: []byte(`{"predictor":"stride","digest":"abd","events":10,"overall":{}}`)},
		{status: 200, body: []byte(`{"predictor":"last-value","digest":"abc","events":10,"overall":{"NodeGen":2}}`)},
	}
	errs, _ := checkResponses(plan, ups, out)
	if errs[0] != nil || errs[1] != nil {
		t.Errorf("good answers rejected: %v, %v", errs[0], errs[1])
	}
	if errs[2] == nil {
		t.Error("wrong digest accepted")
	}
	if errs[3] == nil {
		t.Error("repeat with different figures accepted")
	}
}

func TestSampleRSS(t *testing.T) {
	stop := sampleRSS(os.Getpid(), time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	mb := stop()
	if len(mb) < 2 {
		t.Fatalf("%d samples in 20 ms at 1 ms", len(mb))
	}
	for _, v := range mb {
		if v <= 0 || v > 1<<20 {
			t.Fatalf("resident set %g MB", v)
		}
	}
}
