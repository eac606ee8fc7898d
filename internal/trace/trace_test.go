package trace

import (
	"bytes"
	"errors"
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

func TestReaderRejectsGarbage(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("NOPE....")},
		{"truncated header", []byte("DPGT")},
		{"bad version", []byte("DPGT\x09")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewReader(bytes.NewReader(tc.data)); err == nil {
				t.Error("expected error")
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

func TestReaderRejectsInvalidOpcode(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriterV1(&buf, "t", 1)
	_ = w.Write(&Event{PC: 0, Op: isa.OpNop, DstReg: isa.NoReg})
	_ = w.Close()
	data := buf.Bytes()
	// Corrupt the event opcode byte (first byte after the v1 header).
	headerLen := 4 + 1 + 1 + 1 + 1 // magic, version, name len, name, numStatic
	data[headerLen] = 0xEE
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
	// fuzzer finding).
	var buf bytes.Buffer
	buf.WriteString("DPGT")
	buf.WriteByte(1)   // version
	buf.WriteByte(1)   // name len
	buf.WriteByte('x') // name
	buf.WriteByte(2)   // numStatic
	buf.WriteByte(byte(isa.OpAdd))
	buf.WriteByte(0)    // pc
	buf.WriteByte(0x03) // flags: NSrc=3
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var e Event
	if err := r.Next(&e); err == nil || !strings.Contains(err.Error(), "source operands") {
		t.Errorf("corrupt NSrc: err = %v", err)
	}
}

func TestReaderRejectsHugeProgramLength(t *testing.T) {
	// A corrupt header must not drive a giant footer allocation
	// (regression for a fuzzer finding).
	var buf bytes.Buffer
	buf.WriteString("DPGT")
	buf.WriteByte(1)   // version
	buf.WriteByte(1)   // name len
	buf.WriteByte('x') // name
	// numStatic = huge uvarint
	buf.Write([]byte{0xe1, 0xe1, 0xe1, 0xe1, 0xe1, 0xe1, 0x01})
	if _, err := NewReader(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("huge program length accepted")
	}
}

// TestReaderRejectsOverlongVarint feeds varints that run past 64 bits, in
// a v2 block frame's length and in a v1 footer count: strict mode must
// report ErrMalformed, and lenient mode must recover instead of leaking
// the varint decoder's untyped overflow error (regression for a fuzzer
// finding).
func TestReaderRejectsOverlongVarint(t *testing.T) {
	overlong := bytes.Repeat([]byte{0xee}, 10)
	v2 := append(append(v2HeaderOnly(t), blockMarker...), overlong...)
	v1 := append([]byte(headerMagic), 1, 1, 'x', 1, 0) // one static PC, no events
	v1 = append(v1, overlong...)
	for name, data := range map[string][]byte{"v2-block-length": v2, "v1-footer-count": v1} {
		if run := decode(t, data); !errors.Is(run.err, ErrMalformed) {
			t.Errorf("%s: strict error %v, want ErrMalformed", name, run.err)
		}
		run := decode(t, data, Lenient())
		if run.err != nil || len(run.events) != 0 || !run.stats.Truncated {
			t.Errorf("%s: lenient run: err %v, %d events, stats %+v", name, run.err, len(run.events), run.stats)
		}
	}
}
