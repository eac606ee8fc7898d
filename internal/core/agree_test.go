package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/trace"
)

// TestServerMatchesSuiteProducts checks that dpgd's ?experiments= and the
// figures suite compute the same streaming experiments: the suite's own
// trace of an integer workload, uploaded under the suite's predictor,
// comes back with the suite's reuse, confidence, ILP (context entry) and
// speculation products, field for field.
func TestServerMatchesSuiteProducts(t *testing.T) {
	const name = "com"
	suite := core.NewSuite(core.SuiteConfig{Scale: 0.05})
	tr, err := suite.TraceFor(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, tr); err != nil {
		t.Fatal(err)
	}
	want, err := suite.ContextStreamProducts(name)
	if err != nil {
		t.Fatal(err)
	}
	if want.Reuse == nil || want.ILP == nil || len(want.Confidence) == 0 || len(want.Speculation) == 0 {
		t.Fatalf("suite products incomplete: %+v", want)
	}

	s, err := server.New(server.Config{StoreDir: filepath.Join(t.TempDir(), "store"), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	resp, err := http.Post(ts.URL+"/analyze?predictor=context&experiments=reuse,ilp,confidence,speculation",
		"application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got struct {
		Name        string
		Experiments *core.StreamProducts
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Name != name || got.Experiments == nil {
		t.Fatalf("response for %q with experiments %v, want %q with experiments", got.Name, got.Experiments, name)
	}
	exp := got.Experiments
	if !reflect.DeepEqual(exp.Reuse, want.Reuse) {
		t.Errorf("reuse: server %+v, suite %+v", exp.Reuse, want.Reuse)
	}
	if !reflect.DeepEqual(exp.Confidence, want.Confidence) {
		t.Errorf("confidence: server %+v, suite %+v", exp.Confidence, want.Confidence)
	}
	if !reflect.DeepEqual(exp.ILP, want.ILP) {
		t.Errorf("ilp: server %+v, suite %+v", exp.ILP, want.ILP)
	}
	if !reflect.DeepEqual(exp.Speculation, want.Speculation) {
		t.Errorf("speculation: server %+v, suite %+v", exp.Speculation, want.Speculation)
	}
}
