package repro

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dpg"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// buildTools compiles the command binaries once into a shared temp dir.
func buildTools(t *testing.T, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range names {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, msg)
		}
	}
	return dir
}

// TestCLIPipeline exercises the deliverable binaries end to end: generate a
// trace with tracegen, analyse it with dpgrun, regenerate a figure with
// figures, and compile-and-run a mini-C program with mcc.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	bin := buildTools(t, "tracegen", "dpgrun", "figures", "mcc", "objdump")
	work := t.TempDir()
	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		cmd.Dir = work
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}
	// dpgrun runs dpgrun alone and returns its stdout and stderr apart.
	dpgrun := func(args ...string) ([]byte, string) {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, "dpgrun"), args...)
		cmd.Dir = work
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("dpgrun %v: %v\n%s", args, err, stderr.String())
		}
		return out, stderr.String()
	}
	// perKind runs dpgrun once per predictor and returns what one -all run
	// must print: the shared header, then each run's predictor section.
	perKind := func(args ...string) []byte {
		t.Helper()
		var header string
		var want bytes.Buffer
		for _, k := range predictor.AllKinds {
			out, _ := dpgrun(append(args, "-predictor", k.String())...)
			at := bytes.Index(out, []byte("== predictor: "))
			if at < 0 {
				t.Fatalf("dpgrun %v -predictor %s printed no section:\n%s", args, k, out)
			}
			if header == "" {
				header = string(out[:at])
				want.WriteString(header)
			} else if string(out[:at]) != header {
				t.Errorf("dpgrun %v -predictor %s header %q, want %q", args, k, out[:at], header)
			}
			want.Write(out[at:])
		}
		return want.Bytes()
	}

	// tracegen -> trace file.
	tracePath := filepath.Join(work, "fig1.dpg")
	out := run("tracegen", "-workload", "fig1", "-rounds", "20", "-o", tracePath)
	if !strings.Contains(out, "dynamic instructions") {
		t.Errorf("tracegen output: %q", out)
	}

	// dpgrun consumes the trace.
	out = run("dpgrun", "-trace", tracePath, "-predictor", "stride")
	for _, want := range []string{"Table 1", "Figure 5", "predictor: stride"} {
		if !strings.Contains(out, want) {
			t.Errorf("dpgrun output missing %q", want)
		}
	}

	// tracegen -compress: the compressed file is smaller, reports its codec,
	// and dpgrun consumes it with no special flags (readers auto-detect).
	plainInfo, err := os.Stat(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	flatePath := filepath.Join(work, "fig1-flate.dpg")
	out = run("tracegen", "-workload", "fig1", "-rounds", "20", "-compress", "flate", "-o", flatePath)
	if !strings.Contains(out, "codec flate") {
		t.Errorf("tracegen -compress output missing codec: %q", out)
	}
	flateInfo, err := os.Stat(flatePath)
	if err != nil {
		t.Fatal(err)
	}
	if flateInfo.Size() >= plainInfo.Size() {
		t.Errorf("compressed trace not smaller: %d vs %d bytes", flateInfo.Size(), plainInfo.Size())
	}
	out = run("dpgrun", "-trace", flatePath, "-predictor", "stride")
	if !strings.Contains(out, "predictor: stride") {
		t.Errorf("dpgrun on compressed trace: %q", out)
	}

	// A subdirectory named like a trace is skipped by directory mode and
	// -merge alike: both list the directory the same way.
	if err := os.Mkdir(filepath.Join(work, "sub.dpg"), 0o755); err != nil {
		t.Fatal(err)
	}

	// dpgrun -merge aggregates the directory (one plain + one compressed
	// trace at this point) into a single exact report; -merge -all prints
	// the header once and then each -merge -predictor section.
	out = run("dpgrun", "-merge", "-trace", work, "-predictor", "stride")
	for _, want := range []string{"merged 2 trace file(s)", "predictor: stride", "Table 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("dpgrun -merge output missing %q:\n%s", want, out)
		}
	}
	if mergeAll, _ := dpgrun("-merge", "-trace", work, "-all"); !bytes.Equal(mergeAll, perKind("-merge", "-trace", work)) {
		t.Errorf("dpgrun -merge -all stdout is not the header plus each -merge -predictor section:\n%s", mergeAll)
	}

	// Directory mode decodes each file once for every predictor; -all
	// prints, per file, exactly the rows the -predictor runs print.
	var fileLines []string
	rows := make([][]string, len(predictor.AllKinds)) // [kind][file]
	for ki, k := range predictor.AllKinds {
		out, _ := dpgrun("-trace", work, "-predictor", k.String())
		for _, line := range strings.Split(string(out), "\n") {
			switch {
			case strings.HasPrefix(line, "== ") && ki == 0:
				fileLines = append(fileLines, line)
			case strings.HasPrefix(line, "  "):
				rows[ki] = append(rows[ki], line)
			}
		}
	}
	if len(fileLines) != 2 {
		t.Fatalf("dpgrun -trace %s listed %d files, want the 2 traces: %q", work, len(fileLines), fileLines)
	}
	var wantDir strings.Builder
	for fi, line := range fileLines {
		wantDir.WriteString(line + "\n")
		for ki := range predictor.AllKinds {
			if len(rows[ki]) != len(fileLines) {
				t.Fatalf("dpgrun -predictor %s printed %d rows for %d files", predictor.AllKinds[ki], len(rows[ki]), len(fileLines))
			}
			wantDir.WriteString(rows[ki][fi] + "\n")
		}
	}
	fmt.Fprintf(&wantDir, "\n2 file(s), %d predictor run(s), 0 failure(s)\n", 2*len(predictor.AllKinds))
	if dirAll, _ := dpgrun("-trace", work, "-all"); string(dirAll) != wantDir.String() {
		t.Errorf("dpgrun -trace dir -all stdout:\n%s\nwant the -predictor rows:\n%s", dirAll, wantDir.String())
	}

	// Flags the chosen mode would ignore are rejected with exit status 1:
	// -graph needs one trace to draw, and -rounds only shapes -workload. A
	// trace in the retired version-1 format fails the same way, typed and
	// without a panic, strict or not.
	v1Path := filepath.Join(t.TempDir(), "v1.dpg")
	if err := os.WriteFile(v1Path, []byte("DPGT\x01\x01x\x01\x00\x00END!"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-graph", []string{"-trace", work, "-graph", "8"}},
		{"-graph", []string{"-trace", work, "-merge", "-graph", "8"}},
		{"-rounds", []string{"-trace", tracePath, "-rounds", "2"}},
		{"unsupported version 1", []string{"-trace", v1Path, "-all"}},
		{"unsupported version 1", []string{"-trace", v1Path, "-all", "-strict=false"}},
	} {
		cmd := exec.Command(filepath.Join(bin, "dpgrun"), c.args...)
		cmd.Dir = work
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), c.flag) {
			t.Errorf("dpgrun %v: err %v, want exit status 1 naming %s\n%s", c.args, err, c.flag, out)
		}
	}

	// A trace file analyses exactly as the in-memory workload it was
	// generated from: dpgrun -trace and -workload print the same stdout
	// for every predictor.
	gccPath := filepath.Join(t.TempDir(), "gcc.dpg")
	run("tracegen", "-workload", "gcc", "-rounds", "2", "-o", gccPath)
	fileOut, _ := dpgrun("-trace", gccPath, "-all")
	memOut, _ := dpgrun("-workload", "gcc", "-rounds", "2", "-all")
	if !bytes.Equal(fileOut, memOut) {
		t.Errorf("dpgrun -trace stdout differs from -workload for gcc -rounds 2 -all:\n%s\n----\n%s", fileOut, memOut)
	}

	// On a damaged trace, -strict=false -all prints the header once and
	// then each predictor's section exactly as a -predictor run does, with
	// one corruption summary on stderr.
	blockedPath := filepath.Join(t.TempDir(), "gcc-blocks.dpg")
	run("tracegen", "-workload", "gcc", "-rounds", "2", "-blocklen", "64", "-o", blockedPath)
	data, err := os.ReadFile(blockedPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	flippedPath := filepath.Join(t.TempDir(), "gcc-flipped.dpg")
	if err := os.WriteFile(flippedPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	allOut, allErr := dpgrun("-trace", flippedPath, "-strict=false", "-all")
	if n := strings.Count(allErr, "corruption summary"); n != 1 {
		t.Errorf("dpgrun -strict=false -all printed %d corruption summaries, want 1:\n%s", n, allErr)
	}
	if want := perKind("-trace", flippedPath, "-strict=false"); !bytes.Equal(allOut, want) {
		t.Errorf("dpgrun -strict=false -all stdout is not the header plus each -predictor section:\n%s\n----\n%s", allOut, want)
	}

	// dpgrun -graph prints the Fig. 3 fragment.
	out = run("dpgrun", "-workload", "fig1", "-rounds", "2", "-predictor", "stride", "-graph", "8")
	if !strings.Contains(out, "DPG fragment") || !strings.Contains(out, "<n,n>") {
		t.Errorf("dpgrun -graph output missing fragment:\n%s", out)
	}

	// figures regenerates one experiment.
	out = run("figures", "-scale", "0.05", "-experiment", "table1")
	if !strings.Contains(out, "arcs/node") {
		t.Errorf("figures output missing table: %q", out)
	}

	// mcc compiles and runs a program.
	mcPath := filepath.Join(work, "p.mc")
	if err := os.WriteFile(mcPath, []byte("func main() { out(6 * 7); }"), 0o644); err != nil {
		t.Fatal(err)
	}
	out = run("mcc", mcPath)
	if strings.TrimSpace(out) != "42" {
		t.Errorf("mcc run output = %q, want 42", out)
	}
	out = run("mcc", "-s", mcPath)
	if !strings.Contains(out, "fn_main:") {
		t.Errorf("mcc -s output missing function label: %q", out)
	}

	// objdump lists a workload.
	out = run("objdump", "-workload", "m88")
	for _, want := range []string{"simprog", "static instruction mix", "memory"} {
		if !strings.Contains(out, want) {
			t.Errorf("objdump output missing %q", want)
		}
	}
}

// TestCompressionDifferentialWorkloads is the acceptance differential for
// per-block compression: across real workloads × every codec × ReadAll
// and readers at several worker counts, the decoded event stream
// of a compressed trace must be identical to the original, and the
// transforming codecs must actually shrink real traces.
func TestCompressionDifferentialWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("workload sweep in -short mode")
	}
	for _, name := range []string{"fig1", "com", "gcc"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		orig, err := w.TraceRounds(w.Rounds/20+1, 1)
		if err != nil {
			t.Fatal(err)
		}
		var plain bytes.Buffer
		if err := trace.WriteAll(&plain, orig); err != nil {
			t.Fatal(err)
		}
		for _, codec := range trace.Codecs() {
			var buf bytes.Buffer
			if err := trace.WriteAll(&buf, orig, trace.Compression(codec)); err != nil {
				t.Fatalf("%s/%s: %v", name, codec, err)
			}
			if codec != trace.CodecNone && buf.Len() >= plain.Len() {
				t.Errorf("%s/%s: compressed stream not smaller: %d vs %d", name, codec, buf.Len(), plain.Len())
			}
			check := func(label string, got *trace.Trace, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", name, codec, label, err)
				}
				if len(got.Events) != len(orig.Events) {
					t.Fatalf("%s/%s/%s: %d events, want %d", name, codec, label, len(got.Events), len(orig.Events))
				}
				for i := range got.Events {
					if got.Events[i] != orig.Events[i] {
						t.Fatalf("%s/%s/%s: event %d differs", name, codec, label, i)
					}
				}
				for i, c := range got.StaticCount {
					if c != orig.StaticCount[i] {
						t.Fatalf("%s/%s/%s: static count %d differs", name, codec, label, i)
					}
				}
			}
			got, err := trace.ReadAll(bytes.NewReader(buf.Bytes()))
			check("sequential", got, err)
			for _, workers := range []int{1, 2, 8} {
				pgot, perr := readAllWorkers(bytes.NewReader(buf.Bytes()), workers)
				check(fmt.Sprintf("parallel-%d", workers), pgot, perr)
			}
		}
	}
}

// TestSpeculationIntegrationSweep is the acceptance differential for the
// epoch-speculative pass on real workloads: the in-memory sequential
// Result is the reference, and the speculative pass at every chain count
// and epoch shape must reproduce it exactly, as must the file analysis of
// the same trace over both codecs at inline and pooled decode.
func TestSpeculationIntegrationSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("speculation sweep in -short mode")
	}
	dir := t.TempDir()
	mcfg := dpg.Config{Predictor: predictor.KindContext.Factory(), PredictorName: predictor.KindContext.String()}
	for _, name := range []string{"fig1", "com", "gcc"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		orig, err := w.TraceRounds(w.Rounds/20+1, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := dpg.RunWith(orig, mcfg)
		if err != nil {
			t.Fatalf("%s baseline: %v", name, err)
		}
		for _, chains := range []int{0, 1, 2, 4} {
			for _, epochs := range []int{0, 7} {
				label := fmt.Sprintf("%s/chains%d/epochs%d", name, chains, epochs)
				var st dpg.SpecStats
				got, err := dpg.RunSpeculative(orig, mcfg, dpg.SpecConfig{Workers: chains, Epochs: epochs, Stats: &st})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: speculative result differs from sequential", label)
				}
				if st.Fallback || st.Diverged != 0 || st.Epochs == 0 {
					t.Fatalf("%s: implausible stats %+v", label, st)
				}
			}
		}
		for _, codec := range []trace.Codec{trace.CodecNone, trace.CodecFlate} {
			path := filepath.Join(dir, fmt.Sprintf("%s-%s.dpg", name, codec))
			if err := trace.WriteFile(path, orig, trace.Compression(codec), trace.BlockBytes(8<<10)); err != nil {
				t.Fatalf("%s/%s: %v", name, codec, err)
			}
			for _, decode := range []int{1, 2} {
				got, err := core.AnalyzeFile(path, core.WithKind(predictor.KindContext), core.WithWorkers(decode))
				if err != nil {
					t.Fatalf("%s/%s/decode%d: %v", name, codec, decode, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s/decode%d: file analysis differs from the in-memory pass", name, codec, decode)
				}
			}
		}
	}

	// Capstone: the directory-merge coordinator over the full mixed-codec
	// spread (three workloads × two codecs) equals hand-merging the
	// sequential per-file analyses — fan-out and parallel decode included.
	paths, err := filepath.Glob(filepath.Join(dir, "*.dpg"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("globbing sweep traces: %v (%d files)", err, len(paths))
	}
	sort.Strings(paths)
	var partials []*dpg.Result
	for _, p := range paths {
		r, err := core.AnalyzeFile(p, core.WithKind(predictor.KindContext))
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, r)
	}
	want, err := dpg.MergeResults(partials...)
	if err != nil {
		t.Fatal(err)
	}
	want.Name = filepath.Base(dir)
	got, files, err := core.AnalyzeDir(dir, []predictor.Kind{predictor.KindContext}, 3, core.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(paths) {
		t.Fatalf("merge capstone: %d file results, want %d", len(files), len(paths))
	}
	if !reflect.DeepEqual(got, []*dpg.Result{want}) {
		t.Fatal("merge capstone: AnalyzeDir aggregate differs from hand-merged sequential analyses")
	}
}
