package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/isa"
)

// decodeRun captures everything observable about one decode of a byte
// stream.
type decodeRun struct {
	ctorErr   error // constructor failure (nil = header parsed)
	name      string
	numStatic int
	events    []Event
	stats     Stats
	err       error // terminal Next error (nil = clean io.EOF)
	counts    []uint64
}

// capture drains r to exhaustion and records the full observable outcome.
func capture(t *testing.T, r *Reader, ctorErr error) decodeRun {
	t.Helper()
	if ctorErr != nil {
		return decodeRun{ctorErr: ctorErr}
	}
	defer r.Close()
	run := decodeRun{name: r.Name(), numStatic: r.NumStatic()}
	var e Event
	for i := 0; ; i++ {
		if i > 1_000_000 {
			t.Fatal("reader failed to terminate")
		}
		err := r.Next(&e)
		if err == io.EOF {
			break
		}
		if err != nil {
			run.err = err
			break
		}
		run.events = append(run.events, e)
	}
	run.stats = r.Stats()
	run.counts = r.StaticCounts()
	return run
}

// decode captures a decode of data by a reader opened with opts (one
// worker unless opts say otherwise).
func decode(t *testing.T, data []byte, opts ...ReaderOption) decodeRun {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data), opts...)
	return capture(t, r, err)
}

// errText renders a possibly nil error for comparison.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// diffRuns asserts two decode runs are observably identical: same header,
// same event sequence, same Stats, same terminal error (string and typed
// kinds), same static counts.
func diffRuns(t *testing.T, label string, a, b decodeRun) {
	t.Helper()
	if errText(a.ctorErr) != errText(b.ctorErr) {
		t.Fatalf("%s: constructor error mismatch:\n  a: %v\n  b: %v", label, a.ctorErr, b.ctorErr)
	}
	if a.ctorErr != nil {
		return
	}
	if a.name != b.name || a.numStatic != b.numStatic {
		t.Fatalf("%s: header mismatch: a (%q,%d) vs b (%q,%d)", label,
			a.name, a.numStatic, b.name, b.numStatic)
	}
	if len(a.events) != len(b.events) {
		t.Fatalf("%s: event count mismatch: a %d vs b %d", label, len(a.events), len(b.events))
	}
	for i := range a.events {
		if a.events[i] != b.events[i] {
			t.Fatalf("%s: event %d differs:\n  a: %+v\n  b: %+v", label, i, a.events[i], b.events[i])
		}
	}
	if a.stats != b.stats {
		t.Fatalf("%s: stats mismatch:\n  a: %+v\n  b: %+v", label, a.stats, b.stats)
	}
	if errText(a.err) != errText(b.err) {
		t.Fatalf("%s: terminal error mismatch:\n  a: %v\n  b: %v", label, a.err, b.err)
	}
	for _, kind := range []error{ErrTruncated, ErrMalformed, ErrChecksum} {
		if errors.Is(a.err, kind) != errors.Is(b.err, kind) {
			t.Fatalf("%s: error kind mismatch on %v: a %v vs b %v", label, kind, a.err, b.err)
		}
	}
	if (a.counts == nil) != (b.counts == nil) || !equalCounts(a.counts, b.counts) {
		t.Fatalf("%s: static counts mismatch: a %v vs b %v", label, a.counts, b.counts)
	}
}

// diffBoth decodes data inline (Workers(1)) and on a pool of the given
// size, strict and lenient, holds each pair equal, and returns the inline
// runs for the caller's expectations.
func diffBoth(t *testing.T, label string, data []byte, workers int) (strict, lenient decodeRun) {
	t.Helper()
	strict = decode(t, data)
	diffRuns(t, label+"/strict", strict, decode(t, data, Workers(workers)))
	lenient = decode(t, data, Lenient())
	diffRuns(t, label+"/lenient", lenient, decode(t, data, Lenient(), Workers(workers)))
	return strict, lenient
}

// corpusCase is one clean framing shape and the trace it encodes (nil
// when the bytes hold no parsable header).
type corpusCase struct {
	data []byte
	orig *Trace
}

// encodeCorpus builds the differential corpus: every framing shape the
// format can produce.
func encodeCorpus(t *testing.T) map[string]corpusCase {
	t.Helper()
	corpus := map[string]corpusCase{}

	encode := func(tr *Trace, shape func(*Writer)) []byte {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, tr.Name, tr.NumStatic)
		if err != nil {
			t.Fatal(err)
		}
		if shape != nil {
			shape(w)
		}
		for i := range tr.Events {
			if err := w.Write(&tr.Events[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	many, small := smallV2Stream(t, 64)
	add := func(name string, data []byte, tr *Trace) { corpus[name] = corpusCase{data, tr} }
	add("one-block", encode(small, nil), small) // default 64 KiB threshold: single block
	add("many-block", many, small)
	add("tiny-blocks", encode(small, func(w *Writer) { w.SetBlockEvents(1) }), small)
	empty := New("empty", 4)
	add("empty", encode(empty, nil), empty)
	add("flate", encode(small, func(w *Writer) { w.SetBlockSize(64); w.SetCompression(CodecFlate) }), small)
	// Tiny per-event blocks sit below the compression threshold, so these
	// frames are "BLKC" with codec none — the stored-raw fallback shape.
	add("flate-stored", encode(small, func(w *Writer) { w.SetBlockEvents(1); w.SetCompression(CodecFlate) }), small)
	add("no-bytes", nil, nil)
	add("magic-only", []byte(headerMagic), nil)
	return corpus
}

// checkCorpusCase holds a decode of a corpus shape to its trace: a
// truncated header for the headerless shapes, every event and count with
// undamaged Stats otherwise.
func checkCorpusCase(t *testing.T, label string, c corpusCase, run decodeRun) {
	t.Helper()
	if c.orig == nil {
		if !errors.Is(run.ctorErr, ErrTruncated) {
			t.Fatalf("%s: constructor error %v, want ErrTruncated", label, run.ctorErr)
		}
		return
	}
	checkClean(t, label, run, c.orig, cleanStats(t, c.data))
}

// TestParallelDifferentialCorpus decodes every corpus shape in both modes
// across worker counts (Workers(0) = GOMAXPROCS), holding each pool run
// equal to the inline one and the inline one to the encoded trace.
func TestParallelDifferentialCorpus(t *testing.T) {
	for name, c := range encodeCorpus(t) {
		for _, workers := range []int{0, 2, 4, 8} {
			strict, lenient := diffBoth(t, name, c.data, workers)
			checkCorpusCase(t, name+"/strict", c, strict)
			checkCorpusCase(t, name+"/lenient", c, lenient)
		}
	}
}

// flipMatrix flips every byte of stream in turn (XOR x), holding the pool
// decode equal to the inline one and both to what the flip must cause.
func flipMatrix(t *testing.T, label string, stream []byte, orig *Trace, x byte) {
	t.Helper()
	l := layoutOf(t, stream)
	for off := range stream {
		data := append([]byte(nil), stream...)
		data[off] ^= x
		at := fmt.Sprintf("%s@%d", label, off)
		strict, lenient := diffBoth(t, at, data, 4)
		sw, lw := expectFlip(l, off)
		checkStrict(t, at+"/strict", strict, orig, sw)
		checkLenient(t, at+"/lenient", lenient, orig, lw)
	}
}

// TestParallelDifferentialFlipMatrix replays every single-byte flip of a
// multi-block stream through the inline and pooled decoders in both modes.
func TestParallelDifferentialFlipMatrix(t *testing.T) {
	stream, orig := smallV2Stream(t, 64)
	flipMatrix(t, "flip", stream, orig, 0xFF)
}

// TestParallelDifferentialTruncationMatrix replays every truncation point,
// same contract: the pool equals the inline decoder, and both deliver the
// events before the cut with the truncation accounted exactly.
func TestParallelDifferentialTruncationMatrix(t *testing.T) {
	stream, orig := smallV2Stream(t, 64)
	l := layoutOf(t, stream)
	for n := 0; n <= len(stream); n++ {
		at := fmt.Sprintf("cut@%d", n)
		strict, lenient := diffBoth(t, at, stream[:n], 4)
		if n == len(stream) {
			checkClean(t, at+"/strict", strict, orig, cleanStats(t, stream))
			checkClean(t, at+"/lenient", lenient, orig, cleanStats(t, stream))
			continue
		}
		sw, lw := expectCut(l, n)
		checkStrict(t, at+"/strict", strict, orig, sw)
		checkLenient(t, at+"/lenient", lenient, orig, lw)
	}
}

// TestParallelDifferentialTinyBlockDamage runs the flip matrix over a
// per-event-block stream, the shape with the densest framing (worst case
// for resynchronisation).
func TestParallelDifferentialTinyBlockDamage(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix test")
	}
	c := encodeCorpus(t)["tiny-blocks"]
	flipMatrix(t, "tinyflip", c.data, c.orig, 0x55)
}

// TestParallelInjectedIOError asserts a mid-stream I/O failure surfaces
// through the decode pool untyped and unconverted, as it does inline.
func TestParallelInjectedIOError(t *testing.T) {
	stream, _ := smallV2Stream(t, 64)
	boom := errors.New("io boom")
	for _, opts := range [][]ReaderOption{
		{Workers(4)},
		{Workers(4), Lenient()},
	} {
		r, err := NewReader(faultinject.ErrAfter(bytes.NewReader(stream), int64(len(stream)/2), boom), opts...)
		if err != nil {
			t.Fatal(err)
		}
		var e Event
		for err == nil {
			err = r.Next(&e)
		}
		if !errors.Is(err, boom) {
			t.Errorf("injected I/O error lost through the decode pool: %v", err)
		}
		r.Close()
	}
}

// waitNoExtraGoroutines polls until the goroutine count returns to the
// baseline (pipeline goroutines exit asynchronously after quit/EOF).
func waitNoExtraGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestParallelNoGoroutineLeaks checks the pipeline drains completely in
// the three lifecycle shapes: normal EOF, a mid-stream decode error, and
// early consumer abandonment via Close.
func TestParallelNoGoroutineLeaks(t *testing.T) {
	clean, _ := smallV2Stream(t, 64)

	// A CRC flip inside the second block payload fails strict mid-stream.
	corrupt := append([]byte(nil), clean...)
	first := bytes.Index(corrupt, []byte(blockMarker))
	second := bytes.Index(corrupt[first+4:], []byte(blockMarker))
	if second < 0 {
		t.Fatal("need a multi-block stream")
	}
	corrupt[first+4+second+12] ^= 0xFF

	scenarios := map[string]func(t *testing.T){
		"normal-eof": func(t *testing.T) {
			r, err := NewReader(bytes.NewReader(clean), Workers(4))
			if err != nil {
				t.Fatal(err)
			}
			var e Event
			for err == nil {
				err = r.Next(&e)
			}
			if err != io.EOF {
				t.Fatalf("want io.EOF, got %v", err)
			}
			r.Close()
		},
		"crc-error": func(t *testing.T) {
			r, err := NewReader(bytes.NewReader(corrupt), Workers(4))
			if err != nil {
				t.Fatal(err)
			}
			var e Event
			for err == nil {
				err = r.Next(&e)
			}
			if err == io.EOF || !typedErr(err) {
				t.Fatalf("want typed decode error, got %v", err)
			}
			r.Close()
		},
		"abandoned": func(t *testing.T) {
			r, err := NewReader(bytes.NewReader(clean), Workers(4))
			if err != nil {
				t.Fatal(err)
			}
			var e Event
			for i := 0; i < 3; i++ {
				if err := r.Next(&e); err != nil {
					t.Fatalf("event %d: %v", i, err)
				}
			}
			r.Close() // abandon with most of the stream unread
			if err := r.Next(&e); err == nil || err == io.EOF {
				t.Fatalf("Next after Close: want closed error, got %v", err)
			}
		},
	}
	for name, fn := range scenarios {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			for i := 0; i < 10; i++ {
				fn(t)
			}
			waitNoExtraGoroutines(t, base)
		})
	}
}

// readAllWorkers is ReadAll through a reader opened with Workers(n): a
// truncated stream returns the recovered prefix, with counts rebuilt from
// it, together with an error matching ErrTruncated.
func readAllWorkers(r io.Reader, n int) (*Trace, Stats, error) {
	tr, err := NewReader(r, Workers(n))
	if err != nil {
		return nil, Stats{}, err
	}
	defer tr.Close()
	t, err := drain(tr)
	switch {
	case errors.Is(err, ErrTruncated):
		t.StaticCount = rebuildCounts(t)
		return t, tr.Stats(), err
	case err != nil:
		return nil, tr.Stats(), err
	}
	t.StaticCount = tr.StaticCounts()
	return t, tr.Stats(), nil
}

// TestParallelConcurrentConsumers runs many pooled readers at once over
// the same stream; with -race this shakes out sharing bugs in the
// pipeline (the race CI step runs this package).
func TestParallelConcurrentConsumers(t *testing.T) {
	stream, orig := smallV2Stream(t, 64)
	want := cleanStats(t, stream)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, stats, err := readAllWorkers(bytes.NewReader(stream), 4)
			if err != nil {
				t.Errorf("readAllWorkers: %v", err)
				return
			}
			if !equalEvents(got.Events, orig.Events) || !equalCounts(got.StaticCount, orig.StaticCount) {
				t.Errorf("decoded %d events, not the trace's %d", len(got.Events), len(orig.Events))
			}
			if stats != want {
				t.Errorf("stats %+v, want %+v", stats, want)
			}
		}()
	}
	wg.Wait()
}

// TestParallelReadAllMatchesReadAll checks a pooled whole-stream drain
// matches ReadAll and the encoded trace, including the truncated-prefix
// contract.
func TestParallelReadAllMatchesReadAll(t *testing.T) {
	stream, orig := smallV2Stream(t, 64)

	got, stats, err := readAllWorkers(bytes.NewReader(stream), 4)
	if err != nil {
		t.Fatalf("clean stream: %v", err)
	}
	if !equalEvents(got.Events, orig.Events) || !equalCounts(got.StaticCount, orig.StaticCount) || stats.Truncated {
		t.Fatalf("clean stream: %d events (want %d), stats %+v", len(got.Events), len(orig.Events), stats)
	}

	cut := stream[:len(stream)-10] // inside the footer: truncated prefix case
	seqT, seqErr := ReadAll(bytes.NewReader(cut))
	parT, _, parErr := readAllWorkers(bytes.NewReader(cut), 4)
	if errText(seqErr) != errText(parErr) {
		t.Fatalf("truncated error mismatch: seq %v vs par %v", seqErr, parErr)
	}
	if !errors.Is(parErr, ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", parErr)
	}
	// Every block preceded the footer, so the prefix is the whole trace.
	for _, tr := range []*Trace{seqT, parT} {
		if tr == nil || !equalEvents(tr.Events, orig.Events) || !equalCounts(tr.StaticCount, orig.StaticCount) {
			t.Fatalf("truncated prefix is not the whole trace: %v", tr)
		}
	}
}

// TestTinyBlockRoundTrip round-trips a per-event-block stream inline and
// on a pool (the shape cmd/tracegen -blocklen=1 produces).
func TestTinyBlockRoundTrip(t *testing.T) {
	tr := New("tiny", 3)
	tr.Append(Event{PC: 0, Op: isa.OpLi, DstReg: 8, DstVal: 7, HasImm: true})
	tr.Append(Event{PC: 1, Op: isa.OpAddi, NSrc: 1, SrcReg: [2]uint8{8}, SrcVal: [2]uint32{7}, DstReg: 8, DstVal: 8, HasImm: true})
	tr.Append(Event{PC: 2, Op: isa.OpBne, NSrc: 2, DstReg: isa.NoReg, Taken: true})

	var buf bytes.Buffer
	if err := WriteAll(&buf, tr, BlockEvents(1)); err != nil {
		t.Fatal(err)
	}
	// One block per event on the wire.
	if n := bytes.Count(buf.Bytes(), []byte(blockMarker)); n != len(tr.Events) {
		t.Fatalf("wrote %d blocks for %d events", n, len(tr.Events))
	}
	for _, workers := range []int{1, 4} {
		got, stats, err := readAllWorkers(bytes.NewReader(buf.Bytes()), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !equalEvents(got.Events, tr.Events) || stats.Blocks != uint64(len(tr.Events)) {
			t.Fatalf("workers=%d: %d events in %d blocks, want %d in %d", workers,
				len(got.Events), stats.Blocks, len(tr.Events), len(tr.Events))
		}
	}
}

// FuzzParallelReader mirrors FuzzReader for the decode pool and holds it
// equal to the inline decoder on every fuzzer-generated input.
func FuzzParallelReader(f *testing.F) {
	stream, _ := smallV2Stream(f, 64)
	f.Add(stream)
	f.Add(stream[:len(stream)/2])
	f.Add([]byte("DPGT"))
	f.Add([]byte{})
	mutated := append([]byte(nil), stream...)
	if len(mutated) > 20 {
		mutated[19] ^= 0xff
	}
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		diffBoth(t, "fuzz", data, 4)
	})
}
