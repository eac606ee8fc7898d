package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestMain lets a test run the command itself: with DPGRUN_AS_MAIN set,
// the test binary is dpgrun, taking its flags from the command line.
func TestMain(m *testing.M) {
	if os.Getenv("DPGRUN_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// dpgrun runs the command with args and returns its stdout, stderr and
// exit code.
func dpgrun(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DPGRUN_AS_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return stdout.String(), stderr.String(), code
}

// TestDirLenientSummaryPrefix runs directory mode leniently over one
// intact and two damaged traces: each damaged file's corruption summary
// appears on stderr exactly once, as "dpgrun: <path>: corruption summary",
// with no second "dpgrun: " inside it, and the intact file gets none.
func TestDirLenientSummaryPrefix(t *testing.T) {
	dir := t.TempDir()
	w, _ := workloads.ByName("fig1")
	tr, err := w.TraceRounds(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, tr, trace.BlockEvents(64)); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	flipped := func(off int) []byte {
		d := append([]byte(nil), good...)
		d[off] ^= 0xFF
		return d
	}
	intact := write("a.dpg", good)
	damaged := []string{
		write("b.dpg", flipped(len(good)/2)),
		write("c.dpg", flipped(len(good)/3)),
	}

	stdout, stderr, code := dpgrun(t, "-trace", dir, "-strict=false", "-all", "-parallel", "1", "-workers", "1")
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	for _, path := range damaged {
		want := "dpgrun: " + path + ": corruption summary "
		if n := strings.Count(stderr, want); n != 1 {
			t.Errorf("%s: %d summaries, want 1\nstderr:\n%s", filepath.Base(path), n, stderr)
		}
	}
	if strings.Contains(stderr, intact) {
		t.Errorf("intact file reported on stderr:\n%s", stderr)
	}
	if n := strings.Count(stderr, "dpgrun: "); n != len(damaged) {
		t.Errorf("%d \"dpgrun: \" prefixes on stderr, want one per damaged file (%d)\nstderr:\n%s", n, len(damaged), stderr)
	}
}

// TestLenientNoEventsFails runs -strict=false over a CRC-valid trace whose
// only block carries an unknown codec byte (1, the retired lz codec):
// lenient decoding skips that block and recovers no event. The single-file
// run prints the corruption summary and exits 1 without a report; in
// directory mode the file counts as a failure next to an intact one.
func TestLenientNoEventsFails(t *testing.T) {
	dir := t.TempDir()
	w, _ := workloads.ByName("fig1")
	tr, err := w.TraceRounds(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, tr, trace.Compression(trace.CodecFlate)); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if n := bytes.Count(good, []byte("BLKC")); n != 1 {
		t.Fatalf("%d BLKC frames, want 1", n)
	}
	// The CRC covers the stored payload, not the codec byte after the
	// marker, so the frame stays CRC-valid.
	bad := append([]byte(nil), good...)
	bad[bytes.Index(bad, []byte("BLKC"))+4] = 1
	for name, data := range map[string][]byte{"a.dpg": good, "b.dpg": bad} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	badPath := filepath.Join(dir, "b.dpg")

	stdout, stderr, code := dpgrun(t, "-trace", badPath, "-strict=false")
	if code != 1 {
		t.Errorf("single file: exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "recovered 0 events from 0 blocks") || !strings.Contains(stderr, "recovered no events") {
		t.Errorf("single file: stderr lacks the summary or the failure:\n%s", stderr)
	}
	if stdout != "" {
		t.Errorf("single file: printed a report:\n%s", stdout)
	}

	stdout, stderr, code = dpgrun(t, "-trace", dir, "-strict=false", "-parallel", "1")
	if code != 1 {
		t.Errorf("directory: exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "dpgrun: "+badPath+": corruption summary") || !strings.Contains(stdout, "1 failure(s)") {
		t.Errorf("directory: b.dpg not reported as failed\nstdout:\n%s\nstderr:\n%s", stdout, stderr)
	}
}
