package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func TestAnalyzeFileMatchesInMemory(t *testing.T) {
	w, _ := workloads.ByName("fig1")
	tr, err := w.TraceRounds(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fig1.dpg")
	if err := trace.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	fromFile, err := AnalyzeFile(path, WithKind(predictor.KindStride))
	if err != nil {
		t.Fatal(err)
	}
	inMem, err := RunTrace(tr, WithKind(predictor.KindStride))
	if err != nil {
		t.Fatal(err)
	}
	if fromFile.NodeCount != inMem.NodeCount ||
		fromFile.ArcCount != inMem.ArcCount ||
		fromFile.Path != inMem.Path ||
		fromFile.Trees != inMem.Trees ||
		fromFile.Seq != inMem.Seq ||
		fromFile.Branch != inMem.Branch {
		t.Error("streaming file analysis diverges from in-memory analysis")
	}
	if fromFile.Name != "fig1" {
		t.Errorf("name = %q", fromFile.Name)
	}
}

// TestAnalyzeFileCompressedParity runs the same workload trace through
// AnalyzeFile from an uncompressed file and from per-block-compressed
// files under every codec: the analysis must not be able to tell them
// apart (readers auto-detect compression per block, so AnalyzeFile's API
// and results are unchanged).
func TestAnalyzeFileCompressedParity(t *testing.T) {
	w, _ := workloads.ByName("fig1")
	tr, err := w.TraceRounds(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.dpg")
	if err := trace.WriteFile(plain, tr); err != nil {
		t.Fatal(err)
	}
	want, err := AnalyzeFile(plain, WithKind(predictor.KindStride))
	if err != nil {
		t.Fatal(err)
	}
	for _, codec := range trace.Codecs() {
		path := filepath.Join(dir, codec.String()+".dpg")
		if err := trace.WriteFile(path, tr, trace.BlockBytes(4096), trace.Compression(codec)); err != nil {
			t.Fatal(err)
		}
		got, err := AnalyzeFile(path, WithKind(predictor.KindStride))
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		if got.NodeCount != want.NodeCount || got.ArcCount != want.ArcCount ||
			got.Path != want.Path || got.Trees != want.Trees ||
			got.Seq != want.Seq || got.Branch != want.Branch ||
			got.Nodes != want.Nodes || got.Arcs != want.Arcs || got.Name != want.Name {
			t.Errorf("%s: analysis of compressed file diverges:\n got %+v\nwant %+v", codec, got, want)
		}
	}
}

func TestAnalyzeFileDefaultPredictor(t *testing.T) {
	w, _ := workloads.ByName("fig1")
	tr, _ := w.TraceRounds(3, 1)
	path := filepath.Join(t.TempDir(), "t.dpg")
	if err := trace.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	res, err := AnalyzeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Predictor != "context" {
		t.Errorf("default predictor = %q", res.Predictor)
	}
}

func TestAnalyzeFileErrors(t *testing.T) {
	if _, err := AnalyzeFile(filepath.Join(t.TempDir(), "missing.dpg")); err == nil {
		t.Error("missing file accepted")
	}
	// Corrupt file: valid header, truncated body.
	w, _ := workloads.ByName("fig1")
	tr, _ := w.TraceRounds(3, 1)
	path := filepath.Join(t.TempDir(), "bad.dpg")
	if err := trace.WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeFile(path); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated file: err = %v, want ErrTruncated", err)
	}
	// A retired version-1 stream (header "x" with one static instruction,
	// no events, its one count, trailer) is malformed, in both modes.
	v1 := filepath.Join(t.TempDir(), "v1.dpg")
	if err := os.WriteFile(v1, []byte("DPGT\x01\x01x\x01\x00\x00END!"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]Option{nil, {WithLenientTrace()}} {
		if _, err := AnalyzeFile(v1, opts...); !errors.Is(err, trace.ErrMalformed) {
			t.Errorf("version-1 file (%d options): err = %v, want trace.ErrMalformed", len(opts), err)
		}
	}
}

// TestAnalyzeFileCorruptionTaxonomy feeds AnalyzeFile damaged trace files
// through the fault-injection harness and asserts every failure carries
// the core error taxonomy — never a panic, never an untyped error.
func TestAnalyzeFileCorruptionTaxonomy(t *testing.T) {
	w, _ := workloads.ByName("fig1")
	tr, _ := w.TraceRounds(3, 1)
	good := filepath.Join(t.TempDir(), "good.dpg")
	if err := trace.WriteFile(good, tr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	typed := func(err error) bool {
		return errors.Is(err, ErrMalformedEvent) || errors.Is(err, ErrTruncated) ||
			errors.Is(err, ErrChecksum) || errors.Is(err, trace.ErrMalformed)
	}
	// Flip a spread of byte offsets covering header, blocks, and footer.
	for off := 0; off < len(data); off += len(data)/16 + 1 {
		bad, err := io.ReadAll(faultinject.NewReader(bytes.NewReader(data),
			faultinject.Flip{Offset: int64(off), XOR: 0xFF}))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "flip.dpg")
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := AnalyzeFile(path); !typed(err) {
			t.Errorf("flip at %d: err = %v, want typed taxonomy error", off, err)
		}
	}
}

func TestDumpJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("JSON dump in -short mode")
	}
	var buf bytes.Buffer
	s := NewSuite(SuiteConfig{Scale: 0.03, Parallel: 4})
	if err := s.DumpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// The dump runs the model jobs only, and writes what it would after a
	// full Precompute, byte for byte.
	if len(s.products) != 0 {
		t.Errorf("DumpJSON computed %d experiment products, want none", len(s.products))
	}
	var full bytes.Buffer
	pre := NewSuite(SuiteConfig{Scale: 0.03, Parallel: 4})
	if err := pre.Precompute(); err != nil {
		t.Fatal(err)
	}
	if err := pre.DumpJSON(&full); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), full.Bytes()) {
		t.Error("DumpJSON output differs from the dump after a full Precompute")
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	// 15 workloads x 5 predictors on the extended corpus.
	if len(decoded) != 75 {
		t.Errorf("dump has %d entries, want 75", len(decoded))
	}
	if _, ok := decoded["gcc/context"]; !ok {
		t.Error("missing gcc/context entry")
	}
	if _, ok := decoded["bfs/tage"]; !ok {
		t.Error("missing bfs/tage entry")
	}

	// PaperCorpus restricts the dump to the paper's 12 workloads x 3
	// predictors.
	buf.Reset()
	paper := NewSuite(SuiteConfig{Scale: 0.03, Parallel: 4, PaperCorpus: true})
	if err := paper.DumpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	decoded = nil
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("paper-corpus dump is not valid JSON: %v", err)
	}
	if len(decoded) != 36 {
		t.Errorf("paper-corpus dump has %d entries, want 36", len(decoded))
	}
	if _, ok := decoded["bfs/last-value"]; ok {
		t.Error("paper-corpus dump contains a graph workload")
	}
}
