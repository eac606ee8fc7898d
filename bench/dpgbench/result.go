package main

import (
	"fmt"
	"math"
	"time"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metricValue

// set records a metric. A value that could not be measured (no passing
// operation to take it from) reads 0; such a run is already marked
// incorrect by its failures.
func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metricValue{Value: v, Unit: unit}
}

func (m metrics) setMS(name string, d time.Duration) {
	m.set(name, float64(d)/float64(time.Millisecond), "ms")
}

// runResult is one run of one workload, untraced (end-to-end metrics) or
// traced (per-layer metrics).
type runResult struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   metrics  `json:"metrics"`
	Notes     []string `json:"notes,omitempty"`
	Errors    []string `json:"errors,omitempty"`
	// SelfMS is the traced run's self time per layer, in ms, for the
	// mirrored workload run and for the layer replay.
	SelfMS map[string]map[string]float64 `json:"self_ms,omitempty"`
	// OutputSHA256 is the sha256 of the first passing operation's output.
	OutputSHA256 string `json:"output_sha256,omitempty"`
	Spans        []span `json:"spans,omitempty"`
}

func newRunResult(workload string, traced bool, t *tally) *runResult {
	return &runResult{
		Workload:  workload,
		Traced:    traced,
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics{},
		Errors:    t.errs,
	}
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// invalidate marks a run whose numbers cannot be trusted.
func (r *runResult) invalidate(format string, args ...any) {
	r.Correct = false
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

// failFrac is the share of checked operations that failed.
func (r *runResult) failFrac() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// line is the one-line JSON result a single run ends with.
type line struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func (r *runResult) line() line {
	return line{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}
