// Command dpgd serves the predictability model as a long-running,
// fault-tolerant HTTP service. Clients POST BLKC trace files to /analyze;
// the body streams straight into a content-addressed trace store (never
// buffered whole in memory), runs through a bounded job queue with
// explicit backpressure (429 + Retry-After when full), and is analysed
// under a per-job deadline with cancellation plumbed down to the decode
// loop. Identical uploads are de-duplicated by a result cache keyed on
// (trace digest × predictor × model version × requested experiments), with
// in-flight duplicates coalesced onto one computation. /analyze is the
// only upload endpoint; a directory of traces is aggregated in one process
// by dpgrun -trace dir -merge.
//
// Usage:
//
//	dpgd -addr :8080 -store /var/lib/dpgd
//	curl -sf --data-binary @gcc.dpg 'localhost:8080/analyze?predictor=context'
//
// Every admitted job runs the same way: one inline decode of the spooled
// trace feeds the in-order model pass (and any requested experiments).
// Under overload the only response is backpressure: a full queue answers
// 429.
//
// Operational endpoints: /healthz (liveness), /readyz (unready while
// draining), /metrics (queue depth, in-flight jobs, cache hit rate,
// per-stage latency histograms, plain text).
//
// On SIGINT/SIGTERM the server stops admitting work, drains queued and
// running jobs for -drain-timeout, then cancels whatever remains through
// its context and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the testable entry point: the integration test boots it on a
// random port and reads the bound address from ready.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("dpgd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
	storeDir := fs.String("store", "", "trace store directory (default: a temp directory)")
	queue := fs.Int("queue", 32, "job queue depth; admissions beyond it get 429")
	workers := fs.Int("workers", 0, "concurrent analysis jobs (0 = all cores)")
	jobTimeout := fs.Duration("job-timeout", 60*time.Second, "per-job deadline")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget before jobs are cancelled")
	maxUpload := fs.Int64("max-upload", 1<<30, "maximum upload size in bytes")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *storeDir == "" {
		dir, err := os.MkdirTemp("", "dpgd-store-")
		if err != nil {
			fmt.Fprintf(stderr, "dpgd: %v\n", err)
			return 1
		}
		defer os.RemoveAll(dir)
		*storeDir = dir
	}

	srv, err := server.New(server.Config{
		StoreDir:       filepath.Clean(*storeDir),
		QueueDepth:     *queue,
		Workers:        *workers,
		JobTimeout:     *jobTimeout,
		MaxUploadBytes: *maxUpload,
	})
	if err != nil {
		fmt.Fprintf(stderr, "dpgd: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "dpgd: %v\n", err)
		return 1
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(stdout, "dpgd: listening on %s (store %s, queue %d)\n", ln.Addr(), *storeDir, *queue)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "dpgd: serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting out the drain
	fmt.Fprintf(stdout, "dpgd: signal received, draining (budget %s)\n", *drainTimeout)

	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop the listener and in-flight HTTP exchanges first, then drain the
	// job queue; handler responses for running jobs have already gone out
	// or will error with the connection.
	httpErr := httpSrv.Shutdown(dctx)
	drainErr := srv.Shutdown(dctx)
	if drainErr != nil {
		fmt.Fprintf(stderr, "dpgd: %v\n", drainErr)
		return 1
	}
	if httpErr != nil && !errors.Is(httpErr, context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "dpgd: http shutdown: %v\n", httpErr)
		return 1
	}
	fmt.Fprintln(stdout, "dpgd: drained cleanly")
	return 0
}
