package main

import (
	"context"
	"strings"
	"testing"
	"time"
)

// fakeOp returns a 5 ms operation printing "figures", except that the
// call numbered corruptAt (from 0; -1 for none) prints a damaged copy.
func fakeOp(corruptAt int, calls *int) func(context.Context) (childResult, error) {
	return func(context.Context) (childResult, error) {
		time.Sleep(5 * time.Millisecond)
		out := "figures\n"
		if *calls == corruptAt {
			out = "figureZ\n"
		}
		*calls++
		return childResult{wall: 5 * time.Millisecond, cpu: 5 * time.Millisecond, rssMB: 1, stdout: []byte(out)}, nil
	}
}

// A wrong output is a failed operation: it raises fail_frac, marks the run
// incorrect and leaves the latency samples alone.
func TestCorruptedOutputRaisesFailFrac(t *testing.T) {
	var cleanCalls, calls int
	var clean, corrupt tally
	checkOps(measureOps(context.Background(), 100*time.Millisecond, fakeOp(-1, &cleanCalls)), sameAs(nil), &clean)
	log := checkOps(measureOps(context.Background(), 100*time.Millisecond, fakeOp(2, &calls)), sameAs(nil), &corrupt)
	if calls < 3 {
		t.Fatalf("only %d operations in a 100 ms window of 5 ms operations", calls)
	}

	cleanRun, corruptRun := newRunResult("suite", false, &clean), newRunResult("suite", false, &corrupt)
	if cleanRun.failFrac() != 0 || !cleanRun.Correct || cleanRun.Attempted != cleanCalls {
		t.Errorf("clean run: fail_frac %g, correct %v, %d of %d attempted", cleanRun.failFrac(), cleanRun.Correct, cleanRun.Attempted, cleanCalls)
	}
	if want := 1 / float64(calls); corruptRun.failFrac() != want || corruptRun.Correct {
		t.Errorf("corrupt run: fail_frac %g, correct %v; want %g, false", corruptRun.failFrac(), corruptRun.Correct, want)
	}
	if len(log.wall) != calls-1 {
		t.Errorf("%d latency samples from %d operations: the failed one must not be timed", len(log.wall), calls)
	}
	if len(corrupt.errs) != 1 || !strings.Contains(corrupt.errs[0], "differs from the run's first output") {
		t.Errorf("errors = %q", corrupt.errs)
	}
}

func TestMeasureOpsWindow(t *testing.T) {
	slow := func(context.Context) (childResult, error) { return childResult{wall: time.Hour}, nil }
	if n := len(measureOps(context.Background(), time.Second, slow)); n != 1 {
		t.Errorf("%d operations longer than the window, want exactly 1", n)
	}
	// Operations of half the window: the second is expected to end at the
	// window's end, so it starts; a third would end half an operation past
	// it, so it does not.
	half := func(context.Context) (childResult, error) {
		time.Sleep(100 * time.Millisecond)
		return childResult{wall: 100 * time.Millisecond}, nil
	}
	if n := len(measureOps(context.Background(), 200*time.Millisecond, half)); n != 2 {
		t.Errorf("%d operations of half a window, want 2", n)
	}
}

// Full-size seed-1 outputs must match their pinned hash; a reference that
// cannot be built (here: set-up wrote no trace files) is a failed check
// and fails every output.
func TestReferenceChecks(t *testing.T) {
	b := &bench{seed: 1, scale: 1}
	var tl tally
	check := b.verifier(context.Background(), &workload{name: "suite"}, &prepared{dir: t.TempDir()}, &tl)
	if err := check([]byte("not the figures")); err == nil || !strings.Contains(err.Error(), "seed-1 reference") {
		t.Errorf("seed-1 output with the wrong hash: err = %v", err)
	}
	b.seed = 2
	check = b.verifier(context.Background(), &workload{name: "suite"}, &prepared{dir: t.TempDir()}, &tl)
	if err := check([]byte("any figures")); err == nil || !strings.Contains(err.Error(), "no reference output") {
		t.Errorf("output checked against a reference that was never built: err = %v", err)
	}
	if tl.attempted != 2 || tl.failed != 2 {
		t.Errorf("%d of %d reference builds failed, want 2 of 2", tl.failed, tl.attempted)
	}
}
