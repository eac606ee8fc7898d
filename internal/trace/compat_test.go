package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/isa"
)

// The files under testdata/ were written by the writer as it stood before
// version 1 and the built-in LZ codec were retired, from fixtureTrace with
// fixtureBlockBytes: one stream at codec none ("BLK2" frames) and one at
// codec flate ("BLKC" frames). They pin that traces written before the
// format was narrowed to one version still decode, bit for bit.
const (
	fixtureNone       = "testdata/fixture-none.dpg"
	fixtureFlate      = "testdata/fixture-flate.dpg"
	fixtureBlockBytes = 512
)

// fixtureTrace is the trace the fixture files encode: a short prologue,
// then forty trips round an eight-instruction loop that loads, sums, stores,
// reads input and branches, with data values from a fixed xorshift so the
// stream is neither constant nor incompressible.
func fixtureTrace() *Trace {
	const n = 40
	tr := New("fixture", 12)
	rng := uint32(0x2545F491)
	next := func() uint32 {
		rng ^= rng << 13
		rng ^= rng >> 17
		rng ^= rng << 5
		return rng
	}
	tr.Append(Event{PC: 0, Op: isa.OpLi, DstReg: 8, DstVal: 0, HasImm: true})
	tr.Append(Event{PC: 1, Op: isa.OpLa, DstReg: 9, DstVal: 0x1000, HasImm: true})
	sum := uint32(0)
	for i := uint32(0); i < n; i++ {
		addr := 0x1000 + 4*i
		v := next() & 0xFFFF
		tr.Append(Event{PC: 2, Op: isa.OpLw, NSrc: 1, SrcReg: [2]uint8{9}, SrcVal: [2]uint32{addr},
			DstReg: 10, DstVal: v, Addr: addr, MemVal: v, HasImm: true})
		tr.Append(Event{PC: 3, Op: isa.OpAdd, NSrc: 2, SrcReg: [2]uint8{11, 10}, SrcVal: [2]uint32{sum, v},
			DstReg: 11, DstVal: sum + v})
		sum += v
		tr.Append(Event{PC: 4, Op: isa.OpSw, NSrc: 2, SrcReg: [2]uint8{9, 11}, SrcVal: [2]uint32{addr, sum},
			DstReg: isa.NoReg, Addr: addr + 0x800, MemVal: sum, HasImm: true})
		in := next() % 7
		tr.Append(Event{PC: 5, Op: isa.OpIn, DstReg: 12, DstVal: in, MemVal: in})
		tr.Append(Event{PC: 6, Op: isa.OpXor, NSrc: 2, SrcReg: [2]uint8{12, 10}, SrcVal: [2]uint32{in, v},
			DstReg: 13, DstVal: in ^ v})
		tr.Append(Event{PC: 7, Op: isa.OpAddi, NSrc: 1, SrcReg: [2]uint8{9}, SrcVal: [2]uint32{addr},
			DstReg: 9, DstVal: addr + 4, HasImm: true})
		tr.Append(Event{PC: 8, Op: isa.OpAddi, NSrc: 1, SrcReg: [2]uint8{8}, SrcVal: [2]uint32{i},
			DstReg: 8, DstVal: i + 1, HasImm: true})
		tr.Append(Event{PC: 9, Op: isa.OpBne, NSrc: 2, SrcReg: [2]uint8{8, 14}, SrcVal: [2]uint32{i + 1, n},
			DstReg: isa.NoReg, Taken: i+1 < n})
	}
	tr.Append(Event{PC: 10, Op: isa.OpOut, NSrc: 1, SrcReg: [2]uint8{11}, SrcVal: [2]uint32{sum},
		DstReg: isa.NoReg})
	tr.Append(Event{PC: 11, Op: isa.OpHalt, DstReg: isa.NoReg})
	return tr
}

// TestFixturesStillDecode decodes both fixture files inline and on a pool
// of four to fixtureTrace's events and counts, with clean multi-block
// Stats, and checks today's writer still produces the codec-none file byte
// for byte. (The flate file is only decoded: stdlib DEFLATE output may
// change between Go releases, and either form is a valid stream.)
func TestFixturesStillDecode(t *testing.T) {
	want := fixtureTrace()
	for _, path := range []string{fixtureNone, fixtureFlate} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		for _, workers := range []int{1, 4} {
			run := decode(t, data, Workers(workers))
			label := name
			if workers > 1 {
				label += "/workers4"
			}
			checkClean(t, label, run, want, cleanStats(t, data))
			if run.stats.Blocks < 2 || run.stats.EventsDeclared != uint64(len(want.Events)) {
				t.Errorf("%s: want a multi-block stream declaring %d events, got %+v", label, len(want.Events), run.stats)
			}
			if compressed := run.stats.BlocksCompressed > 0; compressed != (path == fixtureFlate) {
				t.Errorf("%s: BlocksCompressed = %d", label, run.stats.BlocksCompressed)
			}
		}
	}

	var buf bytes.Buffer
	if err := WriteAll(&buf, want, BlockBytes(fixtureBlockBytes)); err != nil {
		t.Fatal(err)
	}
	if old, _ := os.ReadFile(fixtureNone); !bytes.Equal(buf.Bytes(), old) {
		t.Errorf("codec-none writer output (%d bytes) differs from %s (%d bytes)", buf.Len(), fixtureNone, len(old))
	}
}
