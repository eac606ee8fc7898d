package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// contract is BENCHMARK.json at the repository root: the command that runs
// the benchmark, its workloads, and the metrics it reports. dpgbench checks
// every run's output against it and takes the regression bounds for
// -agree from it.
type contract struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDecl declares one metric. Bound is set for end-to-end metrics
// only: the share of the baseline median by which the metric may worsen.
type metricDecl struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// Caps on the contract's lists and fields.
const (
	maxContractBytes = 64 << 10
	maxWorkloads     = 8
	maxEndToEnd      = 16
	maxPerLayer      = 128
	maxBound         = 0.25
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func loadContract(repo string) (*contract, error) {
	data, err := os.ReadFile(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	return parseContract(data)
}

// parseContract decodes and validates BENCHMARK.json. Unknown or missing
// keys, malformed names and units, and lists beyond their caps are errors.
func parseContract(data []byte) (*contract, error) {
	if len(data) > maxContractBytes {
		return nil, fmt.Errorf("BENCHMARK.json: %d bytes, over the %d-byte cap", len(data), maxContractBytes)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	for _, k := range want {
		if _, ok := keys[k]; !ok {
			return nil, fmt.Errorf("BENCHMARK.json: missing key %q", k)
		}
	}
	if len(keys) != len(want) {
		return nil, fmt.Errorf("BENCHMARK.json: keys must be exactly %v", want)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c contract
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := c.validate(); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

func (c *contract) validate() error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }

	if n := len(c.Command); n < 1 || n > 32 {
		bad("command: %d strings, want 1 to 32", n)
	}
	for _, s := range c.Command {
		if len(s) > 200 || strings.HasPrefix(s, "/") || strings.Contains(s, "..") {
			bad("command: %q is over 200 characters, absolute, or leaves the repository", s)
		}
	}
	if n := len(c.Paths); n < 1 || n > 16 {
		bad("paths: %d entries, want 1 to 16", n)
	}
	for _, p := range c.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			bad("paths: %q is not a relative path inside the repository", p)
		}
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		bad("run_seconds: %d, want 1 to 60", c.RunSeconds)
	}
	if n := len(c.Workloads); n < 2 || n > maxWorkloads {
		bad("workloads: %d, want 2 to %d", n, maxWorkloads)
	}
	if n := len(c.EndToEnd); n < 1 || n > maxEndToEnd {
		bad("end_to_end: %d metrics, want 1 to %d", n, maxEndToEnd)
	}
	if n := len(c.PerLayer); n < 1 || n > maxPerLayer {
		bad("per_layer: %d metrics, want 1 to %d", n, maxPerLayer)
	}

	seen := map[string]bool{}
	name := func(where, n string) {
		if !nameRE.MatchString(n) {
			bad("%s: name %q must match %s", where, n, nameRE)
		}
		if seen[n] {
			bad("%s: name %q is used twice", where, n)
		}
		seen[n] = true
	}
	for _, w := range c.Workloads {
		name("workloads", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			bad("workloads: %s: why must be one line of 1 to 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range c.EndToEnd {
		name("end_to_end", m.Name)
		c.checkMetric("end_to_end", m, bad)
		switch {
		case m.Bound == nil:
			bad("end_to_end: %s has no bound", m.Name)
		case *m.Bound <= 0 || *m.Bound > maxBound:
			bad("end_to_end: %s bound %g, want (0, %g]", m.Name, *m.Bound, maxBound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			if !setup {
				bad("end_to_end: setup_s must have unit s and better lower")
			}
		}
	}
	if !setup && len(c.EndToEnd) > 0 {
		bad("end_to_end: setup_s is required")
	}
	for _, m := range c.PerLayer {
		name("per_layer", m.Name)
		c.checkMetric("per_layer", m, bad)
		if m.Bound != nil {
			bad("per_layer: %s has a bound; only end-to-end metrics do", m.Name)
		}
	}
	return errors.Join(errs...)
}

func (c *contract) checkMetric(where string, m metricDecl, bad func(string, ...any)) {
	if !unitRE.MatchString(m.Unit) {
		bad("%s: %s unit %q must match %s", where, m.Name, m.Unit, unitRE)
	}
	if m.Better != "lower" && m.Better != "higher" {
		bad("%s: %s better %q, want lower or higher", where, m.Name, m.Better)
	}
}

func (c *contract) workloadNames() []string {
	out := make([]string, len(c.Workloads))
	for i, w := range c.Workloads {
		out[i] = w.Name
	}
	return out
}

// declared returns the metrics a run must report: the end-to-end metrics
// for an untraced run, the per-layer metrics for a traced one.
func (c *contract) declared(traced bool) []metricDecl {
	if traced {
		return c.PerLayer
	}
	return c.EndToEnd
}

// checkEmitted reports every declared metric a run left out or gave
// another unit, and every metric it reported without declaring it.
func (c *contract) checkEmitted(m metrics, traced bool) error {
	var errs []string
	decl := map[string]bool{}
	for _, d := range c.declared(traced) {
		decl[d.Name] = true
		v, ok := m[d.Name]
		switch {
		case !ok:
			errs = append(errs, fmt.Sprintf("%s not reported", d.Name))
		case v.Unit != d.Unit:
			errs = append(errs, fmt.Sprintf("%s reported in %s, declared in %s", d.Name, v.Unit, d.Unit))
		}
	}
	for name := range m {
		if !decl[name] {
			errs = append(errs, fmt.Sprintf("%s reported but not declared", name))
		}
	}
	if len(errs) == 0 {
		return nil
	}
	sort.Strings(errs)
	return fmt.Errorf("metrics disagree with BENCHMARK.json: %s", strings.Join(errs, "; "))
}
