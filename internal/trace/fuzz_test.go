package trace

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"testing"

	"repro/internal/isa"
)

// FuzzReader checks the trace decoder never panics and never fabricates
// invalid events from arbitrary bytes.
func FuzzReader(f *testing.F) {
	// Seed with a real stream and some mutations of it.
	var buf bytes.Buffer
	tr := New("seed", 3)
	tr.Append(Event{PC: 0, Op: isa.OpLi, DstReg: 8, DstVal: 1, HasImm: true})
	tr.Append(Event{PC: 1, Op: isa.OpSw, NSrc: 2, SrcReg: [2]uint8{28, 8}, SrcVal: [2]uint32{4, 1}, DstReg: isa.NoReg, Addr: 4, MemVal: 1})
	tr.Append(Event{PC: 2, Op: isa.OpBne, NSrc: 2, DstReg: isa.NoReg, Taken: true})
	if err := WriteAll(&buf, tr); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte("DPGT"))
	f.Add([]byte{})
	mutated := append([]byte(nil), good...)
	if len(mutated) > 10 {
		mutated[9] ^= 0xff
	}
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		drainChecked(t, data, false)
		drainChecked(t, data, true)
	})
}

// drainChecked decodes data to exhaustion in the given mode, asserting the
// decoder's arbitrary-bytes guarantees: termination, no panic, and no
// structurally invalid event ever delivered.
func drainChecked(t *testing.T, data []byte, lenient bool) {
	var opts []ReaderOption
	if lenient {
		opts = append(opts, Lenient())
	}
	r, err := NewReader(bytes.NewReader(data), opts...)
	if err != nil {
		return
	}
	var e Event
	for i := 0; i < 1_000_000; i++ {
		err := r.Next(&e)
		if err == io.EOF {
			// Clean EOF means the footer parsed (or, leniently, was given
			// up on): counts must exist unless recovery reported them lost.
			if r.StaticCounts() == nil && r.NumStatic() > 0 && !r.Stats().FooterLost {
				t.Fatal("clean EOF without static counts")
			}
			return
		}
		if err != nil {
			if lenient && !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) {
				// Lenient mode converts format damage into recovery or
				// clean EOF; any surviving error must be typed (or an
				// underlying I/O failure, impossible over bytes.Reader).
				t.Fatalf("lenient reader leaked untyped error: %v", err)
			}
			return
		}
		if !isa.Valid(e.Op) {
			t.Fatalf("decoder produced invalid opcode %d", e.Op)
		}
		if e.NSrc > 2 {
			t.Fatalf("decoder produced NSrc=%d", e.NSrc)
		}
	}
	t.Fatal("decoder failed to terminate on bounded input")
}

// FuzzCompressedBlock drives the compression layer three ways with one
// input: flate must round-trip arbitrary bytes exactly through
// flateExpand; flateExpand must survive the same bytes *as* a compressed
// stream (exactly the declared length on success, an error otherwise,
// never a panic); and a whole trace written with a fuzzer-chosen codec and
// block size must decode identically inline and on a pool.
func FuzzCompressedBlock(f *testing.F) {
	stream, _ := smallV2Stream(f, 64)
	f.Add([]byte{}, byte(1), uint16(64))
	f.Add([]byte("abcabcabcabcabcabc"), byte(1), uint16(64))
	f.Add(stream, byte(2), uint16(100))
	f.Add(bytes.Repeat([]byte{0xFF, 0x00}, 200), byte(2), uint16(1))

	f.Fuzz(func(t *testing.T, data []byte, codecByte byte, blockSize uint16) {
		// 1. Identity: compress-then-expand is the identity on any input.
		var comp bytes.Buffer
		fw, err := flate.NewWriter(&comp, flate.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := flateExpand(nil, comp.Bytes(), len(data))
		if err != nil {
			t.Fatalf("flate round trip errored: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("flate round trip mismatch: %d in, %d out", len(data), len(got))
		}

		// 2. Adversarial: the input interpreted as a compressed stream.
		const declared = 1 << 16
		if out, err := flateExpand(nil, data, declared); err == nil && len(out) != declared {
			t.Fatalf("flate expand returned %d bytes for a declared %d", len(out), declared)
		}

		// 3. Full-stack: a valid trace under a fuzzer-chosen shape must
		// round-trip inline and on a pool, observably identically.
		codecs := Codecs()
		codec := codecs[int(codecByte)%len(codecs)]
		tr := New("fz", 4)
		for i := 0; i < 50; i++ {
			v := uint32(i)
			if len(data) > 0 {
				v = uint32(data[i%len(data)])
			}
			tr.Append(Event{PC: uint32(i % 4), Op: isa.OpAddi, NSrc: 1,
				SrcReg: [2]uint8{8}, SrcVal: [2]uint32{v}, DstReg: 8, DstVal: v + 1, HasImm: true})
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, tr, BlockBytes(int(blockSize)), Compression(codec)); err != nil {
			t.Fatalf("write with codec %s: %v", codec, err)
		}
		seq := decode(t, buf.Bytes())
		diffRuns(t, "fuzz-compressed", seq, decode(t, buf.Bytes(), Workers(4)))
		if seq.err != nil || len(seq.events) != len(tr.Events) {
			t.Fatalf("codec %s: decode failed: %d events, err %v", codec, len(seq.events), seq.err)
		}
		for i := range seq.events {
			if seq.events[i] != tr.Events[i] {
				t.Fatalf("codec %s: event %d differs", codec, i)
			}
		}
	})
}

// FuzzCorruption round-trips a known-good multi-block stream through
// fuzzer-chosen corruption (a byte flip plus a truncation point) and
// asserts the recover-or-typed-error contract on both reader modes.
func FuzzCorruption(f *testing.F) {
	stream, orig := smallV2Stream(f, 64)
	f.Add(uint32(0), byte(0xFF), uint32(len(stream)))
	f.Add(uint32(len(stream)/2), byte(0x01), uint32(len(stream)))
	f.Add(uint32(len(stream)-1), byte(0x80), uint32(len(stream)/2))

	f.Fuzz(func(t *testing.T, off uint32, xor byte, cut uint32) {
		data := append([]byte(nil), stream...)
		if int(cut) < len(data) {
			data = data[:cut]
		}
		if int(off) < len(data) {
			data[off] ^= xor
		}
		intact := bytes.Equal(data, stream)

		got, err := ReadAll(bytes.NewReader(data))
		if err == nil {
			if !intact {
				t.Fatal("strict reader accepted a corrupted stream")
			}
		} else if !typedErr(err) {
			t.Fatalf("strict: untyped error %v", err)
		} else if errors.Is(err, ErrTruncated) && got != nil {
			if !isSubsequence(got.Events, orig.Events) {
				t.Fatal("strict: partial trace is not a subsequence")
			}
		}

		lt, _, lerr := ReadAllLenient(bytes.NewReader(data))
		if lerr != nil {
			if !typedErr(lerr) {
				t.Fatalf("lenient: untyped error %v", lerr)
			}
			return
		}
		if !isSubsequence(lt.Events, orig.Events) {
			t.Fatal("lenient: recovered events are not a subsequence")
		}
	})
}
