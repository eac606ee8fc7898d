package fleet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Spawn-mode limits: a crash-looping worker binary gets a bounded number of
// restarts, and startup waits a bounded time for the listen line.
const (
	maxRestarts    = 5
	restartDelay   = 250 * time.Millisecond
	startupTimeout = 15 * time.Second
)

// listenPrefix is the line dpgd prints once its listener is bound; the
// spawner scans worker stdout for it to learn the (possibly :0-assigned)
// address.
const listenPrefix = "dpgd: listening on "

// SpawnConfig configures a locally spawned worker pool.
type SpawnConfig struct {
	// Binary is the dpgd executable to launch.
	Binary string
	// N is the number of worker processes. Default 3.
	N int
	// StoreRoot hosts one spool-store directory per worker. Default: a
	// fresh temporary directory.
	StoreRoot string
	// Args are extra dpgd flags appended after -addr and -store.
	Args []string
	// Restart re-launches a worker that exits while the pool is running
	// (bounded by maxRestarts per worker). Killed or crashed workers
	// re-enter the rotation with a fresh port; the coordinator's readmit
	// probe finds them there.
	Restart bool
	// Log receives worker stdout/stderr lines, prefixed with the worker
	// name. Default: discarded.
	Log io.Writer
}

// procEndpoint is a spawned worker's address: the name is stable across
// restarts, the URL tracks the current process's port.
type procEndpoint struct {
	name string
	url  atomic.Value // string
}

func (e *procEndpoint) Name() string { return e.name }
func (e *procEndpoint) URL() string {
	s, _ := e.url.Load().(string)
	return s
}

// proc is one supervised worker process.
type proc struct {
	ep  *procEndpoint
	mu  sync.Mutex
	cmd *exec.Cmd
	// logs is done once cmd's stdout and stderr are drained into Log.
	logs *sync.WaitGroup
	// done closes when the supervisor goroutine gives up on this worker.
	done chan struct{}
}

// Pool is a set of locally spawned, supervised dpgd workers.
type Pool struct {
	cfg      SpawnConfig
	procs    []*proc
	stopping atomic.Bool
}

// Spawn launches cfg.N dpgd workers on kernel-assigned ports and waits for
// each to report its listen address. On any startup failure the already
// started workers are stopped before the error returns.
func Spawn(ctx context.Context, cfg SpawnConfig) (*Pool, error) {
	if cfg.N <= 0 {
		cfg.N = 3
	}
	if cfg.Binary == "" {
		return nil, errors.New("fleet: spawn: no worker binary configured")
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	// Every worker's stdout and stderr goroutines and every supervisor
	// write Log concurrently.
	cfg.Log = SyncWriter(cfg.Log)
	if cfg.StoreRoot == "" {
		dir, err := os.MkdirTemp("", "dpgfleet-store-")
		if err != nil {
			return nil, err
		}
		cfg.StoreRoot = dir
	}

	p := &Pool{cfg: cfg}
	for i := 0; i < cfg.N; i++ {
		pr := &proc{
			ep:   &procEndpoint{name: fmt.Sprintf("worker-%d", i)},
			done: make(chan struct{}),
		}
		cmd, logs, addr, err := p.startOne(ctx, i)
		if err != nil {
			p.Stop(2 * time.Second)
			return nil, fmt.Errorf("fleet: spawn %s: %w", pr.ep.name, err)
		}
		pr.cmd, pr.logs = cmd, logs
		pr.ep.url.Store("http://" + addr)
		p.procs = append(p.procs, pr)
		go p.supervise(pr, i)
	}
	return p, nil
}

// startOne launches worker i and returns once it printed its listen line.
// The returned WaitGroup is done once the worker's stdout and stderr are
// drained into Log; cmd.Wait must wait for it first.
func (p *Pool) startOne(ctx context.Context, i int) (*exec.Cmd, *sync.WaitGroup, string, error) {
	store := filepath.Join(p.cfg.StoreRoot, fmt.Sprintf("w%d", i))
	if err := os.MkdirAll(store, 0o755); err != nil {
		return nil, nil, "", err
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-store", store}, p.cfg.Args...)
	cmd := exec.Command(p.cfg.Binary, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, "", err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, nil, "", err
	}

	if err := cmd.Start(); err != nil {
		return nil, nil, "", err
	}

	logs := new(sync.WaitGroup)
	logs.Add(2)
	go func() {
		defer logs.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			fmt.Fprintf(p.cfg.Log, "worker-%d! %s\n", i, sc.Text())
		}
	}()
	addrCh := make(chan string, 1)
	go func() {
		defer logs.Done()
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if !sent {
				if rest, ok := strings.CutPrefix(line, listenPrefix); ok {
					addr, _, _ := strings.Cut(rest, " ")
					addrCh <- addr
					sent = true
				}
			}
			fmt.Fprintf(p.cfg.Log, "worker-%d: %s\n", i, line)
		}
		close(addrCh)
	}()
	abort := func(err error) (*exec.Cmd, *sync.WaitGroup, string, error) {
		cmd.Process.Kill()
		logs.Wait()
		cmd.Wait()
		return nil, nil, "", err
	}

	t := time.NewTimer(startupTimeout)
	defer t.Stop()
	select {
	case addr, ok := <-addrCh:
		if !ok || addr == "" {
			return abort(errors.New("worker exited before reporting its address"))
		}
		return cmd, logs, addr, nil
	case <-ctx.Done():
		return abort(ctx.Err())
	case <-t.C:
		return abort(errors.New("worker did not report an address in time"))
	}
}

// supervise waits on a worker process and — in Restart mode — relaunches it
// when it exits while the pool is still running. The endpoint keeps its
// last-known URL while the worker is down, so dispatches fail fast with a
// transport error (feeding the eject machinery) instead of a malformed
// request.
func (p *Pool) supervise(pr *proc, i int) {
	defer close(pr.done)
	restarts := 0
	for {
		pr.mu.Lock()
		cmd, logs := pr.cmd, pr.logs
		pr.mu.Unlock()
		logs.Wait()
		err := cmd.Wait()
		if p.stopping.Load() || !p.cfg.Restart || restarts >= maxRestarts {
			return
		}
		restarts++
		fmt.Fprintf(p.cfg.Log, "fleet: %s exited (%v); restart %d/%d\n", pr.ep.name, err, restarts, maxRestarts)
		time.Sleep(restartDelay)
		if p.stopping.Load() {
			return
		}
		cmd, logs, addr, serr := p.startOne(context.Background(), i)
		if serr != nil {
			fmt.Fprintf(p.cfg.Log, "fleet: %s restart failed: %v\n", pr.ep.name, serr)
			return
		}
		pr.mu.Lock()
		pr.cmd, pr.logs = cmd, logs
		pr.mu.Unlock()
		pr.ep.url.Store("http://" + addr)
		if p.stopping.Load() { // lost the race with Stop: take it back down
			cmd.Process.Signal(syscall.SIGTERM)
		}
	}
}

// Endpoints returns the pool's worker endpoints for Config.Endpoints.
func (p *Pool) Endpoints() []Endpoint {
	eps := make([]Endpoint, len(p.procs))
	for i, pr := range p.procs {
		eps[i] = pr.ep
	}
	return eps
}

// Kill delivers SIGKILL to worker i — the chaos-test hook. With Restart
// set the supervisor brings a replacement up on a fresh port.
func (p *Pool) Kill(i int) error {
	if i < 0 || i >= len(p.procs) {
		return fmt.Errorf("fleet: no worker %d", i)
	}
	pr := p.procs[i]
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.cmd.Process.Kill()
}

// Stop drains the pool: SIGTERM to every worker (dpgd drains in-flight
// jobs), then SIGKILL to whatever is still alive after the timeout, then
// waits for the supervisors to finish.
func (p *Pool) Stop(timeout time.Duration) {
	p.stopping.Store(true)
	for _, pr := range p.procs {
		pr.mu.Lock()
		pr.cmd.Process.Signal(syscall.SIGTERM)
		pr.mu.Unlock()
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for _, pr := range p.procs {
		select {
		case <-pr.done:
		case <-deadline.C:
			for _, rest := range p.procs {
				select {
				case <-rest.done:
				default:
					rest.mu.Lock()
					rest.cmd.Process.Kill()
					rest.mu.Unlock()
				}
			}
			for _, rest := range p.procs {
				<-rest.done
			}
			return
		}
	}
}

// SyncWriter returns a writer that serialises writes to w, so each Fprintf
// lands whole when several goroutines share w.
func SyncWriter(w io.Writer) io.Writer { return &syncWriter{w: w} }

type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
