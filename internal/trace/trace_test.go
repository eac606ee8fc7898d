package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/isa"
)

func sampleTrace() *Trace {
	t := New("sample", 4)
	t.Append(Event{PC: 0, Op: isa.OpLi, DstReg: 8, DstVal: 42})
	t.Append(Event{PC: 1, Op: isa.OpAddi, NSrc: 1, SrcReg: [2]uint8{8, 0}, SrcVal: [2]uint32{42, 0}, DstReg: 9, DstVal: 43})
	t.Append(Event{PC: 2, Op: isa.OpSw, NSrc: 2, SrcReg: [2]uint8{28, 9}, SrcVal: [2]uint32{0x1000, 43}, DstReg: isa.NoReg, Addr: 0x1000, MemVal: 43})
	t.Append(Event{PC: 3, Op: isa.OpBne, NSrc: 2, SrcReg: [2]uint8{9, 0}, SrcVal: [2]uint32{43, 0}, DstReg: isa.NoReg, Taken: true})
	return t
}

func TestRoundTrip(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := WriteAll(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "sample" || got.NumStatic != 4 {
		t.Errorf("header: name=%q static=%d", got.Name, got.NumStatic)
	}
	if len(got.Events) != len(orig.Events) {
		t.Fatalf("event count %d, want %d", len(got.Events), len(orig.Events))
	}
	for i := range orig.Events {
		if got.Events[i] != orig.Events[i] {
			t.Errorf("event %d: got %v want %v", i, &got.Events[i], &orig.Events[i])
		}
	}
	for pc, c := range orig.StaticCount {
		if got.StaticCount[pc] != c {
			t.Errorf("static count pc %d: %d want %d", pc, got.StaticCount[pc], c)
		}
	}
	if err := got.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRoundTripRandomised(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	orig := New("fuzz", 64)
	ops := []isa.Op{isa.OpAdd, isa.OpLi, isa.OpLw, isa.OpSw, isa.OpBeq, isa.OpJ, isa.OpIn, isa.OpHalt, isa.OpMulf}
	for i := 0; i < 5000; i++ {
		op := ops[rng.Intn(len(ops))]
		e := Event{PC: uint32(rng.Intn(64)), Op: op, DstReg: isa.NoReg, Taken: rng.Intn(2) == 0 && isa.IsBranch(op)}
		info := isa.InfoFor(op)
		if info.HasRs {
			e.SrcReg[e.NSrc] = uint8(rng.Intn(32))
			e.SrcVal[e.NSrc] = rng.Uint32()
			e.NSrc++
		}
		if info.HasRt && !info.Unary {
			e.SrcReg[e.NSrc] = uint8(rng.Intn(32))
			e.SrcVal[e.NSrc] = rng.Uint32()
			e.NSrc++
		}
		if info.HasRd {
			e.DstReg = uint8(rng.Intn(32))
			e.DstVal = rng.Uint32()
		}
		if isa.MemWidth(op) != 0 || op == isa.OpIn {
			e.Addr = rng.Uint32()
			e.MemVal = rng.Uint32()
		}
		orig.Append(e)
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(orig.Events) {
		t.Fatalf("event count %d, want %d", len(got.Events), len(orig.Events))
	}
	for i := range orig.Events {
		if got.Events[i] != orig.Events[i] {
			t.Fatalf("event %d: got %v want %v", i, &got.Events[i], &orig.Events[i])
		}
	}
}

func TestStreamingReader(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := WriteAll(&buf, orig); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "sample" || r.NumStatic() != 4 {
		t.Error("header mismatch")
	}
	if r.StaticCounts() != nil {
		t.Error("static counts should be nil before EOF")
	}
	var e Event
	n := 0
	for {
		err := r.Next(&e)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 4 {
		t.Errorf("streamed %d events, want 4", n)
	}
	if got := r.StaticCounts(); len(got) != 4 || got[0] != 1 {
		t.Errorf("static counts after EOF: %v", got)
	}
	// Further Next calls keep returning EOF.
	if err := r.Next(&e); err != io.EOF {
		t.Errorf("post-EOF Next = %v", err)
	}
}

func TestWriterRejectsBadEvents(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "t", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&Event{PC: 0, Op: isa.OpInvalid}); err == nil {
		t.Error("invalid opcode accepted")
	}
	if err := w.Write(&Event{PC: 5, Op: isa.OpNop}); err == nil {
		t.Error("out-of-range pc accepted")
	}
	if err := w.Write(&Event{PC: 1, Op: isa.OpNop, DstReg: isa.NoReg}); err != nil {
		t.Errorf("good event rejected: %v", err)
	}
	if w.Count() != 1 {
		t.Errorf("count = %d, want 1", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&Event{PC: 0, Op: isa.OpNop, DstReg: isa.NoReg}); err == nil {
		t.Error("write after close accepted")
	}
	if err := w.Close(); err != nil {
		t.Error("double close should be a no-op")
	}
}

// v1Stream hand-builds tr in the retired version-1 layout: unframed
// header fields, event records ended by a zero opcode byte, then the
// per-PC counts and the trailer magic, with no checksums anywhere.
func v1Stream(tr *Trace) []byte {
	b := append([]byte(headerMagic), 1)
	b = appendUvarint(b, uint64(len(tr.Name)))
	b = append(b, tr.Name...)
	b = appendUvarint(b, uint64(tr.NumStatic))
	for i := range tr.Events {
		b = appendEvent(b, &tr.Events[i])
	}
	b = append(b, 0)
	for _, c := range tr.StaticCount {
		b = appendUvarint(b, c)
	}
	return append(b, footerMagic...)
}

// TestReaderRejectsGarbage feeds streams with no usable header. The
// version cases must fail ErrMalformed from the reader in both modes and
// from the footer probe: a version-1 stream is retired, not recovered.
func TestReaderRejectsGarbage(t *testing.T) {
	cases := []struct {
		name      string
		data      []byte
		malformed bool
	}{
		{"empty", nil, false},
		{"bad magic", []byte("NOPE...."), true},
		{"truncated header", []byte("DPGT"), false},
		{"bad version", []byte("DPGT\x09"), true},
		{"retired version 1", v1Stream(sampleTrace()), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewReader(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("expected error")
			}
			if !tc.malformed {
				return
			}
			_, lerr := NewReader(bytes.NewReader(tc.data), Lenient(), Workers(4))
			_, serr := ScanFooter(bytes.NewReader(tc.data))
			for what, got := range map[string]error{"strict reader": err, "lenient reader": lerr, "footer probe": serr} {
				if !errors.Is(got, ErrMalformed) {
					t.Errorf("%s: err = %v, want ErrMalformed", what, got)
				}
			}
		})
	}
}

func TestReaderRejectsTruncatedEvents(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := WriteAll(&buf, orig); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Chop the stream at various points; every prefix must fail cleanly
	// rather than return corrupt data silently.
	for cut := len(full) - 1; cut > 10; cut -= 3 {
		r, err := NewReader(bytes.NewReader(full[:cut]))
		if err != nil {
			continue // header truncation; fine
		}
		var e Event
		var lastErr error
		for {
			lastErr = r.Next(&e)
			if lastErr != nil {
				break
			}
		}
		if lastErr == io.EOF {
			t.Errorf("cut=%d: truncated stream parsed to clean EOF", cut)
		}
	}
}

// withBlock returns stream followed by one CRC-valid "BLK2" frame that
// declares count events in payload, so a test can plant a bad field that
// only the event decoder can catch.
func withBlock(stream []byte, count uint64, payload []byte) []byte {
	out := append([]byte(nil), stream...)
	out = append(out, blockMarker...)
	out = appendUvarint(out, uint64(len(payload)))
	out = appendUvarint(out, count)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

func TestReaderRejectsInvalidOpcode(t *testing.T) {
	// One nop record (op, pc 0, flags 0) whose opcode byte is garbage.
	data := withBlock(v2HeaderOnly(t), 1, []byte{0xEE, 0, 0})
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var e Event
	if err := r.Next(&e); err == nil || !strings.Contains(err.Error(), "invalid opcode") {
		t.Errorf("corrupt opcode: err = %v", err)
	}
	if err := r.Next(&e); err == nil || err == io.EOF {
		t.Errorf("error should be sticky, got %v", err)
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/trace.dpg"
	orig := sampleTrace()
	if err := WriteFile(path, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != orig.Len() || got.Name != orig.Name {
		t.Error("file roundtrip mismatch")
	}
	if _, err := ReadFile(path + ".missing"); err == nil {
		t.Error("missing file should error")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := sampleTrace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}

	bad := sampleTrace()
	bad.Events[0].PC = 99
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range PC accepted")
	}

	bad2 := sampleTrace()
	bad2.Events[0].Op = isa.Op(250)
	if err := bad2.Validate(); err == nil {
		t.Error("invalid opcode accepted")
	}

	bad3 := sampleTrace()
	bad3.StaticCount[0] = 7
	if err := bad3.Validate(); err == nil {
		t.Error("wrong static count accepted")
	}

	bad4 := sampleTrace()
	bad4.Events[1].NSrc = 3
	if err := bad4.Validate(); err == nil {
		t.Error("bad NSrc accepted")
	}
}

func TestEventString(t *testing.T) {
	tr := sampleTrace()
	s0 := tr.Events[0].String()
	if !strings.Contains(s0, "li") || !strings.Contains(s0, "$8") {
		t.Errorf("li string: %q", s0)
	}
	s2 := tr.Events[2].String()
	if !strings.Contains(s2, "[0x1000]") {
		t.Errorf("sw string: %q", s2)
	}
	s3 := tr.Events[3].String()
	if !strings.Contains(s3, "taken") {
		t.Errorf("bne string: %q", s3)
	}
	nt := Event{PC: 0, Op: isa.OpBeq, DstReg: isa.NoReg}
	if !strings.Contains(nt.String(), "not-taken") {
		t.Errorf("not-taken string: %q", nt.String())
	}
}

func TestAppendIgnoresOutOfRangePC(t *testing.T) {
	tr := New("t", 1)
	tr.Append(Event{PC: 5, Op: isa.OpNop, DstReg: isa.NoReg})
	if tr.Len() != 1 {
		t.Error("event not appended")
	}
	// Validate must catch the inconsistency.
	if err := tr.Validate(); err == nil {
		t.Error("out-of-range append passed validation")
	}
}

func TestReaderRejectsOverlongNSrc(t *testing.T) {
	// A hand-crafted event whose flags byte claims 3 source operands must
	// be rejected, not overflow the fixed operand arrays (regression for a
	// fuzzer finding). The record carries two well-formed sources, so the
	// operand count itself is what fails.
	payload := []byte{byte(isa.OpAdd), 0, 0x03, 1, 0, 2, 0} // op, pc, flags NSrc=3, two sources
	r, err := NewReader(bytes.NewReader(withBlock(v2HeaderOnly(t), 1, payload)))
	if err != nil {
		t.Fatal(err)
	}
	var e Event
	if err := r.Next(&e); !errors.Is(err, ErrMalformed) || !strings.Contains(err.Error(), "source operands") {
		t.Errorf("corrupt NSrc: err = %v", err)
	}
}

func TestReaderRejectsHugeProgramLength(t *testing.T) {
	// A corrupt header must not drive a giant footer allocation
	// (regression for a fuzzer finding). The header's CRC is valid, so
	// the program-length bound is what rejects it.
	hdr := appendUvarint([]byte{1, 'x'}, maxNumStatic+1) // name len, name, numStatic
	data := append([]byte(headerMagic), Version2)
	data = appendUvarint(data, uint64(len(hdr)))
	data = binary.LittleEndian.AppendUint32(data, crc32.Checksum(hdr, castagnoli))
	data = append(data, hdr...)
	if _, err := NewReader(bytes.NewReader(data)); !errors.Is(err, ErrMalformed) {
		t.Errorf("huge program length: err = %v, want ErrMalformed", err)
	}
}

// TestReaderRejectsOverlongVarint feeds varints that run past 64 bits, in
// a block frame's length and in a CRC-valid footer's event count: strict
// mode must report ErrMalformed, and lenient mode must recover instead of
// leaking the varint decoder's untyped overflow error (regression for a
// fuzzer finding).
func TestReaderRejectsOverlongVarint(t *testing.T) {
	overlong := append(bytes.Repeat([]byte{0xee}, 10), 0x01)
	block := append(append(v2HeaderOnly(t), blockMarker...), overlong...)
	footer := append(v2HeaderOnly(t), countMarker...)
	footer = appendUvarint(footer, uint64(len(overlong)))
	footer = binary.LittleEndian.AppendUint32(footer, crc32.Checksum(overlong, castagnoli))
	footer = append(append(footer, overlong...), footerMagic...)
	for name, data := range map[string][]byte{"block-length": block, "footer-count": footer} {
		if run := decode(t, data); !errors.Is(run.err, ErrMalformed) {
			t.Errorf("%s: strict error %v, want ErrMalformed", name, run.err)
		}
		run := decode(t, data, Lenient())
		if run.err != nil || len(run.events) != 0 || !run.stats.Truncated {
			t.Errorf("%s: lenient run: err %v, %d events, stats %+v", name, run.err, len(run.events), run.stats)
		}
	}
}
