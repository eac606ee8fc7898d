package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/isa"
)

// compressedCodecs are the codecs that actually transform the payload;
// matrix tests sweep these (CodecNone is the pre-existing BLK2 path, which
// the original corruption matrices already cover).
var compressedCodecs = []Codec{CodecFlate}

// smallCompressedStream is smallV2Stream with a per-block codec selected.
func smallCompressedStream(t testing.TB, blockSize int, codec Codec) ([]byte, *Trace) {
	t.Helper()
	_, tr := smallV2Stream(t, blockSize)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, tr.Name, tr.NumStatic)
	if err != nil {
		t.Fatal(err)
	}
	w.SetBlockSize(blockSize)
	w.SetCompression(codec)
	for i := range tr.Events {
		if err := w.Write(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), tr
}

// bigTrace builds a large, highly repetitive trace — the shape real
// workload traces take, and one every codec must be able to shrink.
func bigTrace(t testing.TB, n int) *Trace {
	t.Helper()
	tr := New("big", 8)
	for i := 0; i < n; i++ {
		tr.Append(Event{
			PC: uint32(i % 8), Op: isa.OpAddi, NSrc: 1,
			SrcReg: [2]uint8{4}, SrcVal: [2]uint32{uint32(i % 16)},
			DstReg: 4, DstVal: uint32(i%16 + 1), HasImm: true,
		})
	}
	return tr
}

// anyBlockMarker returns the offset of the first event-block marker of
// either framing; damage before this point is unrecoverable by design.
func anyBlockMarker(t *testing.T, stream []byte) int {
	t.Helper()
	i := bytes.Index(stream, []byte(blockMarker))
	j := bytes.Index(stream, []byte(blockMarkerC))
	switch {
	case i < 0 && j < 0:
		t.Fatal("stream has no block marker")
	case i < 0:
		return j
	case j < 0:
		return i
	}
	return min(i, j)
}

func TestCodecNames(t *testing.T) {
	for _, c := range Codecs() {
		got, err := ParseCodec(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCodec(%q) = %v, %v; want %v", c.String(), got, err, c)
		}
	}
	for _, name := range []string{"zstd", "lz"} {
		if _, err := ParseCodec(name); err == nil {
			t.Errorf("ParseCodec accepted the unknown codec name %q", name)
		}
	}
	for _, c := range []Codec{1, 9} {
		if want := fmt.Sprintf("codec(%d)", byte(c)); c.String() != want {
			t.Errorf("unknown codec String = %q, want %q", c.String(), want)
		}
	}
}

// TestFlateExpandStrict pins flateExpand's contract: exactly ulen bytes,
// nothing more, nothing less.
func TestFlateExpandStrict(t *testing.T) {
	deflate := func(src []byte) []byte {
		var buf bytes.Buffer
		fw, err := flate.NewWriter(&buf, flate.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(src); err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	src := bytes.Repeat([]byte("payload "), 100)
	comp := deflate(src)

	got, err := flateExpand(nil, comp, len(src))
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("round trip failed: %v", err)
	}
	if _, err := flateExpand(nil, comp, len(src)-1); err == nil {
		t.Error("declared length shorter than stream went undetected")
	}
	if _, err := flateExpand(nil, comp, len(src)+1); err == nil {
		t.Error("declared length longer than stream went undetected")
	}
	if _, err := flateExpand(nil, []byte{0xAA, 0xBB}, 8); err == nil {
		t.Error("garbage stream inflated without error")
	}
}

// TestCompressedRoundTrip writes a large repetitive trace under every
// codec and requires: a strictly smaller stream than uncompressed, an
// identical decode inline and on a pool, and BlocksCompressed visible in
// Stats from both.
func TestCompressedRoundTrip(t *testing.T) {
	orig := bigTrace(t, 4000)
	var plain bytes.Buffer
	if err := WriteAll(&plain, orig, BlockBytes(4096)); err != nil {
		t.Fatal(err)
	}
	for _, codec := range compressedCodecs {
		var buf bytes.Buffer
		if err := WriteAll(&buf, orig, BlockBytes(4096), Compression(codec)); err != nil {
			t.Fatal(err)
		}
		if buf.Len() >= plain.Len() {
			t.Errorf("%s: compressed stream not smaller: %d vs %d plain", codec, buf.Len(), plain.Len())
		}

		seq := decode(t, buf.Bytes())
		diffRuns(t, "roundtrip/"+codec.String(), seq, decode(t, buf.Bytes(), Workers(4)))
		if seq.err != nil || len(seq.events) != len(orig.Events) {
			t.Fatalf("%s: decode failed: %d events, err %v", codec, len(seq.events), seq.err)
		}
		for i := range seq.events {
			if seq.events[i] != orig.Events[i] {
				t.Fatalf("%s: event %d differs after compression round trip", codec, i)
			}
		}
		if seq.stats.BlocksCompressed == 0 || seq.stats.BlocksCompressed > seq.stats.Blocks {
			t.Errorf("%s: implausible BlocksCompressed %d of %d blocks", codec, seq.stats.BlocksCompressed, seq.stats.Blocks)
		}
		for i, c := range seq.counts {
			if c != orig.StaticCount[i] {
				t.Fatalf("%s: static count %d differs", codec, i)
			}
		}
	}
}

// TestCompressedRoundTripNoneCodec checks Compression(CodecNone) stays
// byte-identical to a writer with no codec configured at all.
func TestCompressedRoundTripNoneCodec(t *testing.T) {
	orig := bigTrace(t, 500)
	var plain, none bytes.Buffer
	if err := WriteAll(&plain, orig, BlockBytes(512)); err != nil {
		t.Fatal(err)
	}
	if err := WriteAll(&none, orig, BlockBytes(512), Compression(CodecNone)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), none.Bytes()) {
		t.Error("Compression(CodecNone) changed the wire bytes")
	}
}

// TestIncompressibleStoredRaw drives the skip-if-incompressible heuristic:
// high-entropy blocks must be stored raw (codec byte none) yet still
// decode identically, and compressBlock itself must refuse them.
func TestIncompressibleStoredRaw(t *testing.T) {
	rng := uint64(12345)
	next := func() uint32 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return uint32(rng >> 16)
	}
	tr := New("noise", 4)
	for i := 0; i < 400; i++ {
		tr.Append(Event{
			PC: uint32(i % 4), Op: isa.OpXor, NSrc: 2,
			SrcReg: [2]uint8{1, 2}, SrcVal: [2]uint32{next(), next()},
			DstReg: 3, DstVal: next(),
		})
	}
	for _, codec := range compressedCodecs {
		var buf bytes.Buffer
		if err := WriteAll(&buf, tr, BlockBytes(512), Compression(codec)); err != nil {
			t.Fatal(err)
		}
		got, err := ReadAll(bytes.NewReader(buf.Bytes()))
		if err != nil || len(got.Events) != len(tr.Events) {
			t.Fatalf("%s: noise round trip failed: %d events, %v", codec, len(got.Events), err)
		}
		strict, lenient := diffBoth(t, "noise/"+codec.String(), buf.Bytes(), 4)
		checkClean(t, "noise/"+codec.String()+"/strict", strict, tr, cleanStats(t, buf.Bytes()))
		checkClean(t, "noise/"+codec.String()+"/lenient", lenient, tr, cleanStats(t, buf.Bytes()))
	}

	// Unit-level: the heuristic itself.
	noise := make([]byte, 512)
	for i := range noise {
		noise[i] = byte(next())
	}
	for _, codec := range compressedCodecs {
		w := &Writer{codec: codec, block: noise}
		if _, ok := w.compressBlock(); ok {
			t.Errorf("%s: compressBlock accepted incompressible noise", codec)
		}
		w.block = noise[:minCompressLen-1]
		if _, ok := w.compressBlock(); ok {
			t.Errorf("%s: compressBlock accepted a sub-threshold block", codec)
		}
	}
}

// TestSetCompressionUnknownPoisons checks an out-of-range codec fails the
// writer rather than emitting frames no reader could decode.
func TestSetCompressionUnknownPoisons(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "m", 4)
	if err != nil {
		t.Fatal(err)
	}
	w.SetCompression(Codec(200))
	e := Event{PC: 0, Op: isa.OpLi, DstReg: 1, DstVal: 1, HasImm: true}
	if err := w.Write(&e); err == nil {
		t.Error("write succeeded on a writer with an unknown codec")
	}
}

// TestCompressedCorruptionMatrixStrict is TestCorruptionMatrixStrict over
// compressed streams: every single-byte flip, under every codec, must
// surface as a typed error — in particular a flip inside a compressed
// payload is caught by the CRC over the stored bytes, never fed to a codec
// whose output would silently differ.
func TestCompressedCorruptionMatrixStrict(t *testing.T) {
	for _, codec := range compressedCodecs {
		stream, _ := smallCompressedStream(t, 64, codec)
		for off := range stream {
			r := faultinject.NewReader(bytes.NewReader(stream), faultinject.Flip{Offset: int64(off), XOR: 0xFF})
			_, err := ReadAll(r)
			if err == nil {
				t.Fatalf("%s offset %d: flip went undetected", codec, off)
			}
			if !typedErr(err) {
				t.Fatalf("%s offset %d: untyped error %v", codec, off, err)
			}
		}
	}
}

// TestCompressedCorruptionMatrixLenient is the lenient counterpart: every
// flip either recovers a clean subsequence with the damage recorded, or
// fails typed within the header.
func TestCompressedCorruptionMatrixLenient(t *testing.T) {
	for _, codec := range compressedCodecs {
		stream, orig := smallCompressedStream(t, 64, codec)
		hdr := anyBlockMarker(t, stream)
		recoveredAny := false
		for off := range stream {
			r := faultinject.NewReader(bytes.NewReader(stream), faultinject.Flip{Offset: int64(off), XOR: 0xFF})
			got, stats, err := ReadAllLenient(r)
			if err != nil {
				if off >= hdr {
					t.Fatalf("%s offset %d: lenient read failed outside the header: %v", codec, off, err)
				}
				if !typedErr(err) {
					t.Fatalf("%s offset %d: untyped header error %v", codec, off, err)
				}
				continue
			}
			if !isSubsequence(got.Events, orig.Events) {
				t.Fatalf("%s offset %d: recovered events are not a subsequence", codec, off)
			}
			if stats.BlocksSkipped == 0 && !stats.Truncated && uint64(len(got.Events)) != uint64(len(orig.Events)) {
				t.Fatalf("%s offset %d: events lost but no damage recorded", codec, off)
			}
			if len(got.Events) > 0 {
				recoveredAny = true
			}
		}
		if !recoveredAny {
			t.Fatalf("%s: lenient mode never recovered any events", codec)
		}
	}
}

// TestCompressedTruncationMatrix cuts compressed streams at every length,
// same contract as TestTruncationMatrix.
func TestCompressedTruncationMatrix(t *testing.T) {
	for _, codec := range compressedCodecs {
		stream, orig := smallCompressedStream(t, 64, codec)
		hdr := anyBlockMarker(t, stream)
		for n := 0; n < len(stream); n++ {
			_, err := ReadAll(faultinject.Truncate(bytes.NewReader(stream), int64(n)))
			if err == nil {
				t.Fatalf("%s length %d: truncation went undetected", codec, n)
			}
			if !typedErr(err) {
				t.Fatalf("%s length %d: untyped error %v", codec, n, err)
			}
			lt, stats, lerr := ReadAllLenient(faultinject.Truncate(bytes.NewReader(stream), int64(n)))
			if lerr != nil {
				if n >= hdr {
					t.Fatalf("%s length %d: lenient truncation failed outside the header: %v", codec, n, lerr)
				}
				continue
			}
			if !stats.Truncated {
				t.Fatalf("%s length %d: truncation not recorded", codec, n)
			}
			if !isSubsequence(lt.Events, orig.Events) {
				t.Fatalf("%s length %d: lenient partial trace is not a subsequence", codec, n)
			}
		}
	}
}

// TestCompressedDifferentialFlipMatrix holds the pooled decoder equal to
// the inline one over every single-byte flip of compressed streams, and
// both to what each flip must cause — decompression runs on the pool's
// workers, so this pins the error text, typed kinds, Stats, and recovered
// events across that path.
func TestCompressedDifferentialFlipMatrix(t *testing.T) {
	for _, codec := range compressedCodecs {
		stream, orig := smallCompressedStream(t, 64, codec)
		flipMatrix(t, codec.String()+"-flip", stream, orig, 0xFF)
	}
}

// TestCompressedPayloadFlipIsChecksum pins the ISSUE's core corruption
// contract: a flipped byte *inside a compressed payload* surfaces as
// ErrChecksum at that block's frame, exactly like a flip in a raw payload,
// and a lenient reader loses only that block.
func TestCompressedPayloadFlipIsChecksum(t *testing.T) {
	for _, codec := range compressedCodecs {
		stream, orig := smallCompressedStream(t, 64, codec)
		first := bytes.Index(stream, []byte(blockMarkerC))
		second := bytes.Index(stream[first+4:], []byte(blockMarkerC))
		if second < 0 {
			t.Fatalf("%s: stream has fewer than two compressed blocks", codec)
		}
		// Frame layout after the marker: codec byte, three short uvarints,
		// 4-byte CRC — offset +13 is safely inside the stored payload.
		off := int64(first+4+second) + 13
		_, err := ReadAll(faultinject.NewReader(bytes.NewReader(stream), faultinject.Flip{Offset: off, XOR: 0x40}))
		if !errors.Is(err, ErrChecksum) {
			t.Errorf("%s: payload flip gave %v, want ErrChecksum", codec, err)
		}
		got, stats, lerr := ReadAllLenient(faultinject.NewReader(bytes.NewReader(stream), faultinject.Flip{Offset: off, XOR: 0x40}))
		if lerr != nil {
			t.Fatalf("%s: lenient read failed: %v", codec, lerr)
		}
		if stats.BlocksSkipped == 0 || stats.FooterLost {
			t.Errorf("%s: damage not confined to one block: %+v", codec, stats)
		}
		if len(got.Events) == 0 || !isSubsequence(got.Events, orig.Events) {
			t.Errorf("%s: lenient recovery lost more than the damaged block", codec)
		}
	}
}

// TestCompressedScrambledRegion tears a whole compressed block payload
// (every byte corrupted, the torn-sector shape) and checks both modes and
// both worker counts behave: typed strict error, single-block lenient loss.
func TestCompressedScrambledRegion(t *testing.T) {
	for _, codec := range compressedCodecs {
		stream, orig := smallCompressedStream(t, 64, codec)
		first := bytes.Index(stream, []byte(blockMarkerC))
		second := bytes.Index(stream[first+4:], []byte(blockMarkerC))
		if second < 0 {
			t.Fatalf("%s: need two compressed blocks", codec)
		}
		start := int64(first+4+second) + 13
		scrambled, err := io.ReadAll(faultinject.ScrambleRegion(bytes.NewReader(stream), start, 16, 77))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadAll(bytes.NewReader(scrambled)); !typedErr(err) {
			t.Errorf("%s: scrambled region gave untyped error %v", codec, err)
		}
		got, stats, lerr := ReadAllLenient(bytes.NewReader(scrambled))
		if lerr != nil {
			t.Fatalf("%s: lenient read of scrambled stream failed: %v", codec, lerr)
		}
		if stats.BlocksSkipped == 0 || !isSubsequence(got.Events, orig.Events) {
			t.Errorf("%s: scramble recovery wrong: %d events, %+v", codec, len(got.Events), stats)
		}
		diffBoth(t, codec.String()+"-scramble", scrambled, 4)
	}
}

// v2HeaderOnly returns a valid v2 stream prefix ending right where the
// first frame would start — the scaffold for crafting hostile frames.
func v2HeaderOnly(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "h", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	i := bytes.Index(stream, []byte(countMarker))
	if i < 0 {
		t.Fatal("empty stream has no footer marker")
	}
	return stream[:i]
}

// TestHostileCompressedFrames appends hand-crafted malicious block frames
// to a valid header and requires the inline and pooled decoders to reject
// each with a typed ErrMalformed — before any allocation or inflation sized by the hostile
// fields. The "huge-count" case is a regression test for the overflow in
// the count bound (count*minEventLen wraps; count > len/minEventLen does
// not). The "retired-codec-1" frame carries the byte of the deleted LZ
// codec behind a valid CRC: strict decoders report it at its frame, and a
// lenient one skips it as one damaged block.
func TestHostileCompressedFrames(t *testing.T) {
	hdr := v2HeaderOnly(t)
	crcOf := func(p []byte) []byte {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], crc32.Checksum(p, castagnoli))
		return b[:]
	}
	frame := func(parts ...[]byte) []byte {
		out := append([]byte(nil), hdr...)
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	uv := func(v uint64) []byte { return appendUvarint(nil, v) }
	payload := []byte{1, 2, 3, 4, 5, 6}

	cases := map[string][]byte{
		"unknown-codec":   frame([]byte(blockMarkerC), []byte{9}, uv(6), uv(2), uv(6), crcOf(payload), payload),
		"retired-codec-1": frame([]byte(blockMarkerC), []byte{1}, uv(6), uv(2), uv(6), crcOf(payload), payload),
		"zero-ulen":       frame([]byte(blockMarkerC), []byte{byte(CodecFlate)}, uv(0)),
		"huge-ulen":       frame([]byte(blockMarkerC), []byte{byte(CodecFlate)}, uv(maxBlockLen+1)),
		// A hostile post-inflate claim: tiny stored payload, giant declared
		// uncompressed size. Must die on the ulen bound, not allocate.
		"inflate-bomb":       frame([]byte(blockMarkerC), []byte{byte(CodecFlate)}, uv(1<<40), uv(2), uv(6), crcOf(payload), payload),
		"clen-over-ulen":     frame([]byte(blockMarkerC), []byte{byte(CodecFlate)}, uv(6), uv(2), uv(7), crcOf(payload), payload),
		"zero-clen":          frame([]byte(blockMarkerC), []byte{byte(CodecFlate)}, uv(6), uv(2), uv(0)),
		"none-clen-mismatch": frame([]byte(blockMarkerC), []byte{byte(CodecNone)}, uv(6), uv(2), uv(5), crcOf(payload[:5]), payload[:5]),
		"huge-count-raw":     frame([]byte(blockMarker), uv(6), uv(0x5555555555555556), crcOf(payload), payload),
		"huge-count-comp":    frame([]byte(blockMarkerC), []byte{byte(CodecFlate)}, uv(6), uv(0x5555555555555556), uv(6), crcOf(payload), payload),
		// CRC-clean stored bytes that are not a valid codec stream: must be
		// ErrMalformed at the frame, at every worker count, identically.
		"bad-flate-stream": frame([]byte(blockMarkerC), []byte{byte(CodecFlate)}, uv(200), uv(4), uv(3), crcOf([]byte{0xAA, 0xBB, 0xCC}), []byte{0xAA, 0xBB, 0xCC}),
	}
	for name, data := range cases {
		_, err := ReadAll(bytes.NewReader(data))
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: inline decode gave %v, want ErrMalformed", name, err)
		}
		_, _, perr := readAllWorkers(bytes.NewReader(data), 4)
		if !errors.Is(perr, ErrMalformed) {
			t.Errorf("%s: pooled decode gave %v, want ErrMalformed", name, perr)
		}
		// Lenient mode must survive (no panic, typed or clean) and the two
		// worker counts must agree observably.
		_, lenient := diffBoth(t, "hostile/"+name, data, 4)
		if name == "retired-codec-1" {
			var fe *FormatError
			if !errors.As(err, &fe) || fe.Offset != int64(len(hdr)) || fe.Detail != "unknown block codec 1" {
				t.Errorf("%s: strict error %v, want unknown block codec 1 at the frame offset %d", name, err, len(hdr))
			}
			if lenient.err != nil || lenient.stats.BlocksSkipped != 1 || len(lenient.events) != 0 {
				t.Errorf("%s: lenient run: err %v, %d events, stats %+v", name, lenient.err, len(lenient.events), lenient.stats)
			}
		}
	}
}

// TestWriterBoundsUncompressedPayload pins the flush-early fix: with the
// block threshold at the maximum, the writer must never emit a block whose
// *uncompressed* payload exceeds maxBlockLen (the reader's hard bound) —
// the old threshold check alone let the final event overshoot it.
func TestWriterBoundsUncompressedPayload(t *testing.T) {
	if testing.Short() {
		t.Skip("writes a multi-megabyte stream")
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "huge", 4)
	if err != nil {
		t.Fatal(err)
	}
	w.SetBlockSize(maxBlockLen)
	// Large-varint events: each record is 15 bytes, so blocks approach the
	// cap in odd strides that exercise the boundary.
	e := Event{PC: 1, Op: isa.OpAddi, NSrc: 1, SrcReg: [2]uint8{8}, SrcVal: [2]uint32{1<<32 - 1},
		DstReg: 8, DstVal: 1<<32 - 1, HasImm: true}
	n := maxBlockLen/15 + 2000 // enough to force a flush at the cap plus a tail block
	for i := 0; i < n; i++ {
		if err := w.Write(&e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var ev Event
	for {
		if err := r.Next(&ev); err != nil {
			if err != io.EOF {
				t.Fatalf("reader rejected writer output: %v", err)
			}
			break
		}
	}
	if st := r.Stats(); st.Blocks < 2 || st.Events != uint64(n) {
		t.Fatalf("expected a multi-block stream of %d events, got %+v", n, st)
	}
}

// TestMaxEventLenIsABound encodes the largest possible event record and
// checks it fits the maxEventLen constant the flush-early logic relies on.
func TestMaxEventLenIsABound(t *testing.T) {
	e := Event{
		PC: 1<<32 - 1, Op: isa.OpLw, NSrc: 2,
		SrcReg: [2]uint8{31, 31}, SrcVal: [2]uint32{1<<32 - 1, 1<<32 - 1},
		DstReg: 31, DstVal: 1<<32 - 1,
		Addr: 1<<32 - 1, MemVal: 1<<32 - 1,
		Taken: true, HasImm: true,
	}
	if got := len(appendEvent(nil, &e)); got > maxEventLen {
		t.Fatalf("maximal event encodes to %d bytes, exceeding maxEventLen %d", got, maxEventLen)
	}
}
