package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/isa"
)

// Binary stream layout, format version 2, the only version this package
// reads or writes (all multi-byte integers are unsigned varints; CRCs are
// CRC32C / Castagnoli, little-endian):
//
//	magic   "DPGT"
//	version byte (2)
//	header  uvarint payload length + 4-byte CRC32C + payload:
//	            name uvarint length + bytes
//	            static uvarint program length
//	blocks  repeated framed event blocks, in one of two frames:
//	            marker  "BLK2"                    (raw payload)
//	            len     uvarint payload length (≤ 4 MiB)
//	            count   uvarint events in block (≥ 1, ≤ len/3)
//	            crc     4-byte CRC32C of payload
//	            payload count × event records
//	        or, when the writer has a compression codec selected:
//	            marker  "BLKC"                    (per-block codec)
//	            codec   flags byte: 0 none, 2 flate (compress.go;
//	                    1 is retired)
//	            ulen    uvarint uncompressed payload length (≤ 4 MiB)
//	            count   uvarint events in block (≥ 1, ≤ ulen/3)
//	            clen    uvarint stored payload length (≤ ulen)
//	            crc     4-byte CRC32C of the stored payload
//	            payload clen stored bytes (count × event records
//	                    after decompression; codec 0 stores them raw)
//	footer  framed static-count block:
//	            marker  "FTR2"
//	            len     uvarint payload length
//	            crc     4-byte CRC32C of payload
//	            payload total event count uvarint +
//	                    NumStatic uvarints (per-PC execution counts)
//	magic   "END!"
//
// Each event record:
//
//	op      byte
//	pc      uvarint
//	flags   byte: bit0..1 = NSrc, bit2 = has dst, bit3 = has mem,
//	        bit4 = taken, bit5 = immediate operand
//	srcs    NSrc × (reg byte + value uvarint)
//	dst     reg byte + value uvarint                (if has dst)
//	mem     addr uvarint + value uvarint            (if has mem)
//
// The framing gives three properties: any corruption inside a block is
// detected by its CRC; a reader can resynchronise past a damaged block by
// scanning for the next marker; and a truncated stream is recognised
// exactly (frame boundaries are explicit), so the decoded prefix is
// trustworthy.

const (
	headerMagic = "DPGT"
	footerMagic = "END!"
	blockMarker = "BLK2"
	// blockMarkerC frames a block whose payload may be compressed; the
	// marker is followed by a codec flags byte (see compress.go).
	blockMarkerC = "BLKC"
	countMarker  = "FTR2"

	// Version2 is the framed, CRC32C-checksummed format, the only one
	// read or written.
	Version2 = 2

	// maxNameLen bounds the workload name so a hostile header cannot drive
	// a giant allocation.
	maxNameLen = 1 << 16
	// maxNumStatic bounds the static program length (and with it the
	// footer's count array) far above any real program for this ISA.
	maxNumStatic = 1 << 26
	// maxBlockLen bounds one framed block's payload.
	maxBlockLen = 1 << 22
	// minEventLen is the smallest possible event record (op, pc, flags).
	minEventLen = 3
	// maxEventLen bounds one encoded event record: op byte, pc varint (≤ 5
	// for uint32), flags byte, two sources (reg byte + ≤ 5-byte varint
	// each), destination (reg byte + varint), and memory (two varints).
	// The writer flushes before a block could cross maxBlockLen by one
	// event, so every emitted payload honours the reader's bound.
	maxEventLen = 1 + 5 + 1 + 2*(1+5) + (1 + 5) + (5 + 5)
	// defaultBlockLen is the writer's flush threshold.
	defaultBlockLen = 1 << 16
)

const (
	flagNSrcMask = 0x03
	flagDst      = 0x04
	flagMem      = 0x08
	flagTaken    = 0x10
	flagImm      = 0x20
)

// castagnoli is the CRC32C table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendUvarint appends the varint encoding of v to buf.
func appendUvarint(buf []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(buf, tmp[:n]...)
}

// appendEvent appends one encoded event record to buf. The event must
// already be validated (checkEvent).
func appendEvent(buf []byte, e *Event) []byte {
	flags := e.NSrc & flagNSrcMask
	if e.DstReg != isa.NoReg {
		flags |= flagDst
	}
	hasMem := isa.MemWidth(e.Op) != 0 || e.Op == isa.OpIn
	if hasMem {
		flags |= flagMem
	}
	if e.Taken {
		flags |= flagTaken
	}
	if e.HasImm {
		flags |= flagImm
	}
	buf = append(buf, byte(e.Op))
	buf = appendUvarint(buf, uint64(e.PC))
	buf = append(buf, flags)
	for i := uint8(0); i < e.NSrc; i++ {
		buf = append(buf, e.SrcReg[i])
		buf = appendUvarint(buf, uint64(e.SrcVal[i]))
	}
	if flags&flagDst != 0 {
		buf = append(buf, e.DstReg)
		buf = appendUvarint(buf, uint64(e.DstVal))
	}
	if hasMem {
		buf = appendUvarint(buf, uint64(e.Addr))
		buf = appendUvarint(buf, uint64(e.MemVal))
	}
	return buf
}

// checkEvent validates the fields the wire format (and the model) depend
// on; numStatic ≤ 0 skips the PC bound.
func checkEvent(e *Event, numStatic int) error {
	if e.Op == isa.OpInvalid || !isa.Valid(e.Op) {
		return fmt.Errorf("trace: invalid opcode %d", e.Op)
	}
	if numStatic > 0 && int(e.PC) >= numStatic {
		return fmt.Errorf("trace: pc %d out of range (%d static)", e.PC, numStatic)
	}
	if e.NSrc > 2 {
		return fmt.Errorf("trace: event has %d source operands", e.NSrc)
	}
	for i := uint8(0); i < e.NSrc; i++ {
		if e.SrcReg[i] >= isa.NumRegs {
			return fmt.Errorf("trace: source register %d out of range", e.SrcReg[i])
		}
	}
	if e.DstReg != isa.NoReg && e.DstReg >= isa.NumRegs {
		return fmt.Errorf("trace: destination register %d out of range", e.DstReg)
	}
	return nil
}

// Writer serialises a trace to an io.Writer in streaming fashion,
// accumulating the per-PC static counts itself and emitting them in the
// footer on Close.
type Writer struct {
	w      *bufio.Writer
	counts []uint64
	n      uint64
	err    error
	closed bool

	// Block accumulation.
	blockLen       int
	block          []byte
	blockEvents    uint64
	blockMaxEvents uint64

	// Per-block compression.
	codec    Codec
	flateW   *flate.Writer
	flateBuf bytes.Buffer
}

// NewWriter starts a trace stream for a program of numStatic instructions.
func NewWriter(w io.Writer, name string, numStatic int) (*Writer, error) {
	if len(name) > maxNameLen {
		return nil, fmt.Errorf("trace: name length %d exceeds %d", len(name), maxNameLen)
	}
	if numStatic < 0 || numStatic > maxNumStatic {
		return nil, fmt.Errorf("trace: program length %d out of range [0, %d]", numStatic, maxNumStatic)
	}
	tw := &Writer{
		w:        bufio.NewWriterSize(w, 1<<16),
		counts:   make([]uint64, numStatic),
		blockLen: defaultBlockLen,
	}
	tw.writeBytes([]byte(headerMagic))
	tw.writeByte(Version2)
	var hdr []byte
	hdr = appendUvarint(hdr, uint64(len(name)))
	hdr = append(hdr, name...)
	hdr = appendUvarint(hdr, uint64(numStatic))
	tw.writeUvarint(uint64(len(hdr)))
	tw.writeCRC(hdr)
	tw.writeBytes(hdr)
	return tw, tw.err
}

// SetBlockSize adjusts the block flush threshold (clamped to
// [64, maxBlockLen]); useful for tests that need multi-block streams from
// small traces.
func (tw *Writer) SetBlockSize(n int) {
	if n < 64 {
		n = 64
	}
	if n > maxBlockLen {
		n = maxBlockLen
	}
	tw.blockLen = n
}

// SetBlockEvents caps the number of events per block; 0 (the default)
// leaves the byte-size threshold as the only flush trigger. Small caps
// produce many tiny blocks, which exercises framing overhead and gives the
// parallel decoder fine-grained work items.
func (tw *Writer) SetBlockEvents(n int) {
	if n < 0 {
		n = 0
	}
	tw.blockMaxEvents = uint64(n)
}

// SetCompression selects the per-block codec: each flushed block is
// compressed and framed with a codec flags byte, falling back to raw
// storage for blocks compression would not shrink. CodecNone (the default)
// keeps the uncompressed "BLK2" framing, byte-identical to earlier
// writers. An unknown codec poisons the writer: the next operation fails.
func (tw *Writer) SetCompression(c Codec) {
	if !c.known() {
		if tw.err == nil {
			tw.err = fmt.Errorf("trace: unknown codec %d", byte(c))
		}
		return
	}
	tw.codec = c
}

func (tw *Writer) writeByte(b byte) {
	if tw.err == nil {
		tw.err = tw.w.WriteByte(b)
	}
}

func (tw *Writer) writeBytes(b []byte) {
	if tw.err == nil {
		_, tw.err = tw.w.Write(b)
	}
}

func (tw *Writer) writeUvarint(v uint64) {
	if tw.err == nil {
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(buf[:], v)
		_, tw.err = tw.w.Write(buf[:n])
	}
}

// writeCRC writes the little-endian CRC32C of payload.
func (tw *Writer) writeCRC(payload []byte) {
	if tw.err == nil {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], crc32.Checksum(payload, castagnoli))
		_, tw.err = tw.w.Write(buf[:])
	}
}

// Write appends one event to the stream.
func (tw *Writer) Write(e *Event) error {
	if tw.closed {
		return errors.New("trace: write after Close")
	}
	if err := checkEvent(e, len(tw.counts)); err != nil {
		return err
	}
	tw.counts[e.PC]++
	tw.n++
	// Flush early if this event could push the payload past the reader's
	// maxBlockLen bound — the threshold alone lets a block overshoot by one
	// event when blockLen is at the cap.
	if len(tw.block)+maxEventLen > maxBlockLen {
		tw.flushBlock()
	}
	tw.block = appendEvent(tw.block, e)
	tw.blockEvents++
	if len(tw.block) >= tw.blockLen ||
		(tw.blockMaxEvents > 0 && tw.blockEvents >= tw.blockMaxEvents) {
		tw.flushBlock()
	}
	return tw.err
}

// flushBlock frames and emits the accumulated block. With a codec
// selected the frame is "BLKC": codec byte, uncompressed length, event
// count, stored length, CRC of the stored bytes, stored payload — where
// the stored payload is the compressed form when that is strictly smaller
// and the raw block (flags byte CodecNone) otherwise.
func (tw *Writer) flushBlock() {
	if tw.blockEvents == 0 {
		return
	}
	if tw.codec == CodecNone {
		tw.writeBytes([]byte(blockMarker))
		tw.writeUvarint(uint64(len(tw.block)))
		tw.writeUvarint(tw.blockEvents)
		tw.writeCRC(tw.block)
		tw.writeBytes(tw.block)
	} else {
		stored, codec := tw.block, CodecNone
		if comp, ok := tw.compressBlock(); ok {
			stored, codec = comp, tw.codec
		}
		tw.writeBytes([]byte(blockMarkerC))
		tw.writeByte(byte(codec))
		tw.writeUvarint(uint64(len(tw.block)))
		tw.writeUvarint(tw.blockEvents)
		tw.writeUvarint(uint64(len(stored)))
		tw.writeCRC(stored)
		tw.writeBytes(stored)
	}
	tw.block = tw.block[:0]
	tw.blockEvents = 0
}

// compressBlock compresses the pending block with flate, the one codec
// that transforms a payload, reporting ok = false when the block is too
// small to bother with, the codec failed, or — the
// skip-if-incompressible heuristic — the result would not be strictly
// smaller than the raw payload.
func (tw *Writer) compressBlock() ([]byte, bool) {
	if len(tw.block) < minCompressLen {
		return nil, false
	}
	if tw.flateW == nil {
		fw, err := flate.NewWriter(&tw.flateBuf, flate.DefaultCompression)
		if err != nil {
			return nil, false
		}
		tw.flateW = fw
	}
	tw.flateBuf.Reset()
	tw.flateW.Reset(&tw.flateBuf)
	if _, err := tw.flateW.Write(tw.block); err != nil {
		return nil, false
	}
	if err := tw.flateW.Close(); err != nil {
		return nil, false
	}
	comp := tw.flateBuf.Bytes()
	if len(comp) >= len(tw.block) {
		return nil, false
	}
	return comp, true
}

// Count returns the number of events written so far.
func (tw *Writer) Count() int { return int(tw.n) }

// Close terminates the event stream, writes the static-count footer, and
// flushes. The Writer must not be used afterwards.
func (tw *Writer) Close() error {
	if tw.closed {
		return nil
	}
	tw.closed = true
	tw.flushBlock()
	var ftr []byte
	ftr = appendUvarint(ftr, tw.n)
	for _, c := range tw.counts {
		ftr = appendUvarint(ftr, c)
	}
	tw.writeBytes([]byte(countMarker))
	tw.writeUvarint(uint64(len(ftr)))
	tw.writeCRC(ftr)
	tw.writeBytes(ftr)
	tw.writeBytes([]byte(footerMagic))
	if tw.err == nil {
		tw.err = tw.w.Flush()
	}
	return tw.err
}

// WriteOption shapes a whole-trace serialisation (WriteAll/WriteFile).
type WriteOption func(*Writer)

// BlockEvents caps the number of events per block; see
// Writer.SetBlockEvents. BlockEvents(0) is a no-op.
func BlockEvents(n int) WriteOption {
	return func(w *Writer) { w.SetBlockEvents(n) }
}

// BlockBytes sets the block flush threshold in bytes; see
// Writer.SetBlockSize.
func BlockBytes(n int) WriteOption {
	return func(w *Writer) { w.SetBlockSize(n) }
}

// Compression selects the per-block codec; see
// Writer.SetCompression. Readers auto-detect per block, so consumers need
// no matching option.
func Compression(c Codec) WriteOption {
	return func(w *Writer) { w.SetCompression(c) }
}

// WriteAll serialises an in-memory trace to w.
func WriteAll(w io.Writer, t *Trace, opts ...WriteOption) error {
	tw, err := NewWriter(w, t.Name, t.NumStatic)
	if err != nil {
		return err
	}
	for _, o := range opts {
		o(tw)
	}
	for i := range t.Events {
		if err := tw.Write(&t.Events[i]); err != nil {
			return err
		}
	}
	return tw.Close()
}
