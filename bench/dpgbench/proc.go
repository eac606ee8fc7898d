package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// programs are the repository's commands the workloads run.
var programs = []string{"figures", "dpgrun", "dpgd", "tracegen"}

// buildPrograms compiles the commands into dir. go build leaves an
// up-to-date binary untouched, so later runs in one checkout do not link
// again.
func buildPrograms(ctx context.Context, repo, dir string) error {
	args := []string{"build", "-o", dir + string(os.PathSeparator)}
	for _, p := range programs {
		args = append(args, "./cmd/"+p)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = repo
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	return nil
}

// childTimeout bounds one child process, well inside the run's own limit.
const childTimeout = 150 * time.Second

// childResult is one finished child process: its wall time from start to
// exit, CPU time (user+sys), peak resident set, and standard output.
type childResult struct {
	wall   time.Duration
	cpu    time.Duration
	rssMB  float64
	stdout []byte
}

// runChild runs a program to completion. A non-zero exit is an error
// carrying the last line of its standard error.
func runChild(ctx context.Context, dir, prog string, args ...string) (childResult, error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, prog, args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return childResult{}, fmt.Errorf("%s %s: %v: %s", filepath.Base(prog), strings.Join(args, " "), err, lastLine(errb.Bytes()))
	}
	cpu, rss := usage(cmd.ProcessState)
	return childResult{wall: wall, cpu: cpu, rssMB: rss, stdout: out.Bytes()}, nil
}

// usage reads a finished process's CPU time and peak RSS in MB (Linux
// reports ru_maxrss in KiB).
func usage(ps *os.ProcessState) (cpu time.Duration, rssMB float64) {
	cpu = ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024
	}
	return cpu, rssMB
}

// selfCPU is this process's CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleRSS reads a running process's resident set from /proc every
// interval until the returned function is called; that function returns
// the samples in MB.
func sampleRSS(pid int, every time.Duration) (stop func() []float64) {
	path := fmt.Sprintf("/proc/%d/statm", pid)
	page := float64(os.Getpagesize())
	done := make(chan struct{})
	out := make(chan []float64)
	go func() {
		var mb []float64
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			if data, err := os.ReadFile(path); err == nil {
				// "size resident shared ...", in pages.
				if f := strings.Fields(string(data)); len(f) > 1 {
					if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
						mb = append(mb, pages*page/(1<<20))
					}
				}
			}
			select {
			case <-tick.C:
			case <-done:
				out <- mb
				return
			}
		}
	}()
	return func() []float64 {
		close(done)
		return <-out
	}
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// dpgd is one running server process.
type dpgd struct {
	cmd    *exec.Cmd
	url    string
	stderr *bytes.Buffer
}

// startDpgd starts the server with its default settings (queue, workers =
// all cores, 2-way speculation) on a free loopback port and returns once
// /readyz answers 200.
func startDpgd(ctx context.Context, bin, store string) (*dpgd, error) {
	cmd := exec.Command(filepath.Join(bin, "dpgd"), "-addr", "127.0.0.1:0", "-store", store, "-workers", "0")
	addr := &addrWriter{ch: make(chan string, 1)}
	d := &dpgd{cmd: cmd, stderr: &bytes.Buffer{}}
	cmd.Stdout, cmd.Stderr = addr, d.stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start dpgd: %w", err)
	}
	fail := func(err error) (*dpgd, error) {
		d.stop()
		return nil, err
	}
	select {
	case a := <-addr.ch:
		d.url = "http://" + a
	case <-time.After(20 * time.Second):
		return fail(errors.New("dpgd did not report its address within 20s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	deadline := time.Now().Add(20 * time.Second)
	probe := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := probe.Get(d.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fail(fmt.Errorf("dpgd at %s not ready: %v", d.url, err))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM, as an operator would, and waits for
// it to exit; after 30 s it is killed. It returns the process's CPU time.
func (d *dpgd) stop() (cpu time.Duration, err error) {
	if d.cmd.ProcessState != nil {
		cpu, _ = usage(d.cmd.ProcessState)
		return cpu, nil
	}
	// A process that already exited cannot take the signal; Wait reaps it.
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill() // fails only if it exited meanwhile; Wait reaps it either way
		<-done
		err = errors.New("dpgd did not drain within 30s; killed")
	}
	if err != nil {
		err = fmt.Errorf("dpgd: %v: %s", err, lastLine(d.stderr.Bytes()))
	}
	cpu, _ = usage(d.cmd.ProcessState)
	return cpu, err
}

// addrWriter takes dpgd's standard output and hands over the address from
// its "dpgd: listening on ADDR ..." line on ch (buffered, sent once). Only
// os/exec's copying goroutine calls Write.
type addrWriter struct {
	buf  []byte
	sent bool
	ch   chan string
}

func (w *addrWriter) Write(p []byte) (int, error) {
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	sc := bufio.NewScanner(bytes.NewReader(w.buf))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 4 && f[1] == "listening" && f[2] == "on" {
			w.sent = true
			w.ch <- f[3]
			w.buf = nil
			break
		}
	}
	return len(p), nil
}

// scrape reads a dpgd /metrics page into name → value. Labelled series
// keep their labels in the name.
func scrape(ctx context.Context, client *http.Client, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", url, resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
