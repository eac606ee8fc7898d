package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestRepositoryContractIsValid(t *testing.T) {
	c, err := loadContract(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range c.workloadNames() {
		if _, ok := workloadByName(name); !ok {
			t.Errorf("workload %q has no implementation", name)
		}
	}
	if len(c.workloadNames()) != len(workloadDefs) {
		t.Errorf("BENCHMARK.json declares %d workloads, dpgbench implements %d", len(c.workloadNames()), len(workloadDefs))
	}
}

// validContract is a minimal contract the mutations below break one way
// each.
func validContract() map[string]any {
	return map[string]any{
		"command":     []any{"bash", "bench/run.sh"},
		"paths":       []any{"bench"},
		"run_seconds": 10,
		"workloads": []any{
			map[string]any{"name": "a", "why": "one"},
			map[string]any{"name": "b", "why": "two"},
		},
		"end_to_end": []any{
			map[string]any{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
			map[string]any{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
		},
		"per_layer": []any{
			map[string]any{"name": "dpg.model_ms.context", "unit": "ms", "better": "lower"},
		},
	}
}

func metricList(prefix string, n int, bound bool) []any {
	out := make([]any, n)
	for i := range out {
		m := map[string]any{"name": fmt.Sprintf("%s%d", prefix, i), "unit": "ms", "better": "lower"}
		if bound {
			m["bound"] = 0.1
		}
		out[i] = m
	}
	return out
}

func TestContractValidation(t *testing.T) {
	if _, err := parseContract(mustJSON(t, validContract())); err != nil {
		t.Fatalf("valid contract rejected: %v", err)
	}
	nine := make([]any, 9)
	for i := range nine {
		nine[i] = map[string]any{"name": fmt.Sprintf("w%d", i), "why": "x"}
	}
	e2e17 := append(metricList("m", 16, true), map[string]any{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25})
	cases := map[string]struct {
		mutate func(c map[string]any)
		want   string
	}{
		"extra key":        {func(c map[string]any) { c["extra"] = 1 }, "keys must be exactly"},
		"missing key":      {func(c map[string]any) { delete(c, "per_layer") }, `missing key "per_layer"`},
		"bad name":         {func(c map[string]any) { c["workloads"].([]any)[0].(map[string]any)["name"] = "a b" }, "must match"},
		"leading dot":      {func(c map[string]any) { c["workloads"].([]any)[0].(map[string]any)["name"] = ".a" }, "must match"},
		"long name":        {func(c map[string]any) { c["workloads"].([]any)[0].(map[string]any)["name"] = strings.Repeat("a", 65) }, "must match"},
		"duplicate name":   {func(c map[string]any) { c["workloads"].([]any)[1].(map[string]any)["name"] = "a" }, "used twice"},
		"bad unit":         {func(c map[string]any) { c["per_layer"].([]any)[0].(map[string]any)["unit"] = "m s" }, "unit"},
		"two-line why":     {func(c map[string]any) { c["workloads"].([]any)[0].(map[string]any)["why"] = "a\nb" }, "one line"},
		"one workload":     {func(c map[string]any) { c["workloads"] = c["workloads"].([]any)[:1] }, "workloads: 1"},
		"nine workloads":   {func(c map[string]any) { c["workloads"] = nine }, "workloads: 9"},
		"17 end-to-end":    {func(c map[string]any) { c["end_to_end"] = e2e17 }, "end_to_end: 17"},
		"129 per-layer":    {func(c map[string]any) { c["per_layer"] = metricList("p", 129, false) }, "per_layer: 129"},
		"bound too wide":   {func(c map[string]any) { c["end_to_end"].([]any)[1].(map[string]any)["bound"] = 0.3 }, "bound"},
		"no bound":         {func(c map[string]any) { delete(c["end_to_end"].([]any)[1].(map[string]any), "bound") }, "no bound"},
		"per-layer bound":  {func(c map[string]any) { c["per_layer"].([]any)[0].(map[string]any)["bound"] = 0.1 }, "has a bound"},
		"no setup_s":       {func(c map[string]any) { c["end_to_end"] = c["end_to_end"].([]any)[1:] }, "setup_s is required"},
		"setup_s higher":   {func(c map[string]any) { c["end_to_end"].([]any)[0].(map[string]any)["better"] = "higher" }, "setup_s must"},
		"better sideways":  {func(c map[string]any) { c["per_layer"].([]any)[0].(map[string]any)["better"] = "up" }, "want lower or higher"},
		"absolute path":    {func(c map[string]any) { c["paths"] = []any{"/bench"} }, "paths"},
		"escaping command": {func(c map[string]any) { c["command"] = []any{"bash", "../run.sh"} }, "command"},
		"run_seconds 61":   {func(c map[string]any) { c["run_seconds"] = 61 }, "run_seconds"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			c := validContract()
			tc.mutate(c)
			_, err := parseContract(mustJSON(t, c))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

func TestCheckEmitted(t *testing.T) {
	c, err := parseContract(mustJSON(t, validContract()))
	if err != nil {
		t.Fatal(err)
	}
	m := metrics{}
	m.set("setup_s", 1.5, "s")
	m.set("latency_p50_ms", 12, "ms")
	if err := c.checkEmitted(m, false); err != nil {
		t.Fatalf("complete metrics rejected: %v", err)
	}
	m.set("latency_p50_ms", 12, "s")
	m.set("undeclared", 1, "count")
	delete(m, "setup_s")
	err = c.checkEmitted(m, false)
	for _, want := range []string{"setup_s not reported", "latency_p50_ms reported in s", "undeclared reported but not declared"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want it to mention %q", err, want)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
