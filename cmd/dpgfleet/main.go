// Command dpgfleet scatters a directory of trace files across a pool of
// dpgd worker processes and gathers their partial Results — fetched over
// the versioned wire codec — into one aggregate that is byte-identical to
// analysing the same directory locally with core.AnalyzeDir.
//
// Usage:
//
//	dpgfleet -workers http://a:8080,http://b:8080 -dir traces/
//	dpgfleet -spawn 3 -dpgd ./dpgd -dir traces/
//	dpgfleet -workers http://a:8080 -dir traces/ -wire > aggregate.json
//
// Attach mode (-workers) uses already-running daemons; spawn mode
// (-spawn N) launches and supervises N local dpgd processes on random
// ports — killed or crashed workers restart on a fresh port and re-enter
// the rotation — and tears them down when the run ends.
//
// The coordinator dispatches with bounded in-flight work-stealing (fast
// workers pull more traces), retries transient failures with jittered
// exponential backoff and failover to a different worker, ejects workers
// after consecutive faults and probes /healthz before readmitting them,
// and propagates the per-trace deadline down to the worker's decode loops.
//
// On SIGINT/SIGTERM the run drains: no new dispatches, in-flight traces
// finish, and the partial aggregate is reported with exit status 130. A
// second signal cancels outright. Exit status is 0 only when every trace
// merged.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
	"repro/internal/dpg"
	"repro/internal/fleet"
	"repro/internal/predictor"
	"repro/internal/report"
)

func main() {
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sig))
}

// run is the testable entry point; sig carries drain requests (first
// signal drains, second cancels hard).
func run(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) int {
	fs := flag.NewFlagSet("dpgfleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workers := fs.String("workers", "", "comma-separated base URLs of running dpgd workers (attach mode)")
	spawn := fs.Int("spawn", 0, "spawn and supervise N local dpgd workers (spawn mode)")
	dpgdBin := fs.String("dpgd", "dpgd", "dpgd binary for -spawn")
	spawnArgs := fs.String("spawn-args", "", "extra dpgd flags for spawned workers, space-separated")
	dir := fs.String("dir", "", "directory of .dpg trace files to analyse")
	pred := fs.String("predictor", "context", "last-value | stride | context | tage | ldbp")
	perWorker := fs.Int("per-worker", 2, "concurrent dispatches per worker")
	retries := fs.Int("retries", 3, "attempts per trace before it fails")
	traceTimeout := fs.Duration("trace-timeout", 2*time.Minute, "per-trace dispatch deadline (propagates to the worker's decode)")
	ejectAfter := fs.Int("eject-after", 3, "consecutive worker faults before ejection")
	readmitAfter := fs.Duration("readmit-after", 2*time.Second, "initial ejection period before a readmit probe")
	wire := fs.Bool("wire", false, "write the aggregate as canonical wire JSON to stdout instead of the report tables")
	verbose := fs.Bool("v", false, "log per-worker spawn/supervision events to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Spawned workers (under -v) and the drain goroutine write stderr
	// concurrently with this one.
	stderr = fleet.SyncWriter(stderr)

	if *dir == "" {
		fmt.Fprintln(stderr, "dpgfleet: missing -dir")
		return 2
	}
	if (*workers == "") == (*spawn == 0) {
		fmt.Fprintln(stderr, "dpgfleet: use exactly one of -workers or -spawn")
		return 2
	}
	kind, ok := kindByName(*pred)
	if !ok {
		fmt.Fprintf(stderr, "dpgfleet: unknown predictor %q\n", *pred)
		return 2
	}

	cfg := fleet.Config{
		Predictor:    kind,
		PerWorker:    *perWorker,
		Retries:      *retries,
		TraceTimeout: *traceTimeout,
		EjectAfter:   *ejectAfter,
		ReadmitAfter: *readmitAfter,
	}

	if *spawn > 0 {
		log := io.Discard
		if *verbose {
			log = stderr
		}
		pool, err := fleet.Spawn(context.Background(), fleet.SpawnConfig{
			Binary:  *dpgdBin,
			N:       *spawn,
			Args:    splitArgs(*spawnArgs),
			Restart: true,
			Log:     log,
		})
		if err != nil {
			fmt.Fprintf(stderr, "dpgfleet: %v\n", err)
			return 1
		}
		defer pool.Stop(10 * time.Second)
		cfg.Endpoints = pool.Endpoints()
	} else {
		cfg.Workers = strings.Split(*workers, ",")
	}

	// First signal: drain (finish in-flight, report the partial merge).
	// Second signal: cancel the run context outright.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	drain := make(chan struct{})
	go func() {
		if _, ok := <-sig; !ok {
			return
		}
		fmt.Fprintln(stderr, "dpgfleet: draining (signal again to cancel)")
		close(drain)
		if _, ok := <-sig; ok {
			cancel()
		}
	}()
	cfg.Drain = drain

	s, err := fleet.RunDir(ctx, cfg, *dir)
	if s != nil {
		writeSummary(stderr, s)
	}
	if err != nil {
		fmt.Fprintf(stderr, "dpgfleet: %v\n", err)
	}

	if s != nil && s.Merged != nil {
		if *wire {
			data, werr := dpg.EncodeResult(s.Merged, s.Model)
			if werr != nil {
				fmt.Fprintf(stderr, "dpgfleet: encode aggregate: %v\n", werr)
				return 1
			}
			stdout.Write(data)
		} else {
			fmt.Fprintf(stdout, "== fleet aggregate: %s (%s, %d traces) ==\n", s.Merged.Name, s.Merged.Predictor, s.Completed)
			report.WriteTable1(stdout, analysis.Table1([]*dpg.Result{s.Merged}))
			report.WriteOverall(stdout, []analysis.OverallRow{analysis.Overall(s.Merged)})
		}
	}

	switch {
	case err == nil:
		return 0
	case errors.Is(err, fleet.ErrDrained):
		return 130
	default:
		return 1
	}
}

// writeSummary reports per-trace failures and per-worker statistics.
func writeSummary(w io.Writer, s *fleet.Summary) {
	for i := range s.Files {
		o := &s.Files[i]
		if o.Err != nil {
			what := "failed"
			if o.Skipped {
				what = "skipped"
			}
			fmt.Fprintf(w, "dpgfleet: %s %s: %v\n", what, o.Path, o.Err)
		}
	}
	for _, ws := range s.Workers {
		state := "ok"
		if ws.Dead {
			state = "dead"
		} else if ws.Ejections > 0 {
			state = fmt.Sprintf("ok after %d ejections", ws.Ejections)
		}
		fmt.Fprintf(w, "dpgfleet: worker %s: %d dispatched, %d merged, %d faults (%s)\n",
			ws.Name, ws.Dispatched, ws.Succeeded, ws.Failures, state)
	}
	fmt.Fprintf(w, "dpgfleet: %d merged, %d failed, %d skipped of %d traces\n",
		s.Completed, s.Failed, s.Skipped, len(s.Files))
}

func splitArgs(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	return strings.Fields(s)
}

func kindByName(name string) (predictor.Kind, bool) {
	return predictor.KindByName(name)
}
