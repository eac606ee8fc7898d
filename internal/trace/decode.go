package trace

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync"

	"repro/internal/isa"
)

// Stats summarises what a Reader saw, including the damage a lenient
// reader recovered from. BlocksSkipped counts damage regions, which can
// differ from the number of producer blocks lost when corruption
// misaligns the frame stream.
type Stats struct {
	// Version is the stream's format version (always Version2).
	Version int
	// Blocks counts event blocks decoded successfully.
	Blocks uint64
	// BlocksCompressed counts decoded blocks whose payload was stored
	// compressed (codec flate); raw-stored blocks are not counted.
	BlocksCompressed uint64
	// BlocksSkipped counts corrupt regions skipped in lenient mode.
	BlocksSkipped uint64
	// BytesSkipped counts bytes discarded while resynchronising.
	BytesSkipped int64
	// Events counts events delivered to the caller.
	Events uint64
	// EventsDeclared is the total event count from the footer (0 if the
	// footer was lost).
	EventsDeclared uint64
	// Truncated reports that the stream ended before its trailer.
	Truncated bool
	// FooterLost reports that the static-count footer was unreadable; the
	// per-PC counts were reconstructed from the recovered events.
	FooterLost bool
}

// readerConfig collects the knobs shared by NewReader and
// NewParallelReader.
type readerConfig struct {
	lenient bool
	workers int
	ctx     context.Context
}

// ReaderOption configures NewReader or NewParallelReader.
type ReaderOption func(*readerConfig)

// Lenient switches the reader into recovery mode: instead of failing on
// the first corrupt block it resynchronises at the next frame marker, and
// a truncated stream ends with a clean io.EOF plus Stats describing the
// damage. Header corruption is never recoverable.
func Lenient() ReaderOption {
	return func(c *readerConfig) { c.lenient = true }
}

// Workers sets where blocks decode: 1 decodes each block inline on the
// caller's goroutine, n > 1 runs a pool of n block decoders (see
// parallel.go), and 0 means runtime.GOMAXPROCS(0). NewReader defaults to
// 1 and NewParallelReader to 0.
func Workers(n int) ReaderOption {
	return func(c *readerConfig) { c.workers = n }
}

// WithContext binds the reader to ctx: once ctx is cancelled (or its
// deadline passes), Next stops decoding promptly — within the current
// block — and fails sticky with an error matching ctx.Err(). A decode
// pool additionally interrupts the wait on in-flight workers, so a
// consumer blocked behind a slow source regains control as soon as the
// context ends. A nil ctx (the default) disables the checks entirely.
func WithContext(ctx context.Context) ReaderOption {
	return func(c *readerConfig) { c.ctx = ctx }
}

// canceledErr wraps a context's termination so it surfaces from Next as a
// sticky decode failure while still matching context.Canceled /
// context.DeadlineExceeded via errors.Is.
func canceledErr(ctx context.Context) error {
	return fmt.Errorf("trace: decode canceled: %w", context.Cause(ctx))
}

// countingReader tracks the byte offset of everything consumed, so decode
// errors can report where in the stream they happened.
type countingReader struct {
	br *bufio.Reader
	n  int64
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.br.Read(p)
	c.n += int64(n)
	return n, err
}

// Reader decodes a trace stream. Events stream via Next, or a decoded
// block at a time via NextBlock (block.go); the static-count footer
// becomes available after either returns io.EOF.
//
// Every stream goes through one frame walk (frameWalk) and every block
// through one decoder (decodeBlockFrame). The worker count only chooses
// where blocks decode: inline on the caller's goroutine at Workers(1), or
// on a pool behind a splitter goroutine otherwise. Either way the events,
// Stats and errors — types, offsets and messages — are the same.
//
// A Reader is not safe for concurrent use; one goroutine should own it. A
// consumer that stops before io.EOF must call Close to release a decode
// pool.
type Reader struct {
	// walk reads the stream past the header. With a pool running, only the
	// splitter goroutine touches it, and the consumer reads items instead.
	walk frameWalk
	name string
	ctx  context.Context // nil unless WithContext

	// items carries the splitter's in-order walk; nil when blocks decode
	// inline. quit tells the splitter and workers to drain and exit.
	items chan walkItem
	quit  chan struct{}
	stop  sync.Once

	stats  Stats
	counts []uint64
	// cur is the block being delivered, cur.events[curIdx:] its undelivered
	// events.
	cur    blockResult
	curIdx int
	// curHandedOff marks cur.events as escaped to a NextBlock caller, so
	// advance must not recycle the slice into the event pool.
	curHandedOff bool
	// blockSeq numbers delivered blocks in stream order (Block.Index).
	blockSeq uint64
	done     bool
	sticky   error
}

// NewReader parses the stream header; a version other than Version2 fails
// ErrMalformed. Blocks decode inline unless Workers says otherwise.
func NewReader(r io.Reader, opts ...ReaderOption) (*Reader, error) {
	return newReader(r, 1, opts)
}

// NewParallelReader is NewReader with a decode pool of
// runtime.GOMAXPROCS(0) workers by default.
func NewParallelReader(r io.Reader, opts ...ReaderOption) (*Reader, error) {
	return newReader(r, 0, opts)
}

func newReader(r io.Reader, workers int, opts []ReaderOption) (*Reader, error) {
	cfg := readerConfig{workers: workers}
	for _, o := range opts {
		o(&cfg)
	}
	cr := &countingReader{br: bufio.NewReaderSize(r, 1<<16)}
	h, err := readHeader(cr)
	if err != nil {
		return nil, err
	}
	tr := &Reader{
		walk:  frameWalk{cr: cr, numStatic: h.numStatic, lenient: cfg.lenient},
		name:  h.name,
		ctx:   cfg.ctx,
		stats: Stats{Version: Version2},
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	if cfg.workers > 1 {
		tr.startPool(cfg.workers)
	}
	return tr, nil
}

// readUvarint reads a varint, labelling failures with what is being read.
func readUvarint(cr *countingReader, what string) (uint64, error) {
	off := cr.n
	v, err := binary.ReadUvarint(cr)
	if err != nil {
		if oerr := overflowErr(cr, off, what); oerr != nil {
			return 0, oerr
		}
		return 0, ioErr(off, err, "reading %s", what)
	}
	return v, nil
}

// overflowErr reports a binary.ReadUvarint failure that started at off
// and read ten bytes without a terminator: an overlong varint, which is
// malformed input rather than a failed read. It returns nil otherwise.
func overflowErr(cr *countingReader, off int64, what string) error {
	if cr.n-off < binary.MaxVarintLen64 {
		return nil
	}
	return formatErr(off, ErrMalformed, "%s varint overflows 64 bits", what)
}

// header is what the stream header declares.
type header struct {
	name      string
	numStatic int
}

// readHeader parses the stream header: magic, version byte, and the name
// and program-length fields.
func readHeader(cr *countingReader) (header, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(cr, magic); err != nil {
		return header{}, ioErr(cr.n, err, "reading magic")
	}
	if string(magic) != headerMagic {
		return header{}, formatErr(0, ErrMalformed, "bad magic %q", magic)
	}
	ver, err := cr.ReadByte()
	if err != nil {
		return header{}, ioErr(cr.n, err, "reading version")
	}
	if ver != Version2 {
		return header{}, formatErr(4, ErrMalformed, "unsupported version %d", ver)
	}
	return readHeaderFrame(cr)
}

// readHeaderFrame parses the CRC-framed header payload that follows the
// version byte.
func readHeaderFrame(cr *countingReader) (header, error) {
	hdrOff := cr.n
	hdrLen, err := readUvarint(cr, "header length")
	if err != nil {
		return header{}, err
	}
	if hdrLen > maxNameLen+2*binary.MaxVarintLen64 {
		return header{}, formatErr(cr.n, ErrMalformed, "unreasonable header length %d", hdrLen)
	}
	want, err := readCRC(cr, "header")
	if err != nil {
		return header{}, err
	}
	payload, err := readPayload(cr, int(hdrLen), "header")
	if err != nil {
		return header{}, err
	}
	if crc32.Checksum(payload, castagnoli) != want {
		return header{}, formatErr(hdrOff, ErrChecksum, "header checksum")
	}
	off := 0
	nameLen, err := bufUvarint(payload, &off)
	if err != nil || nameLen > uint64(len(payload)-off) {
		return header{}, formatErr(hdrOff, ErrMalformed, "bad name length in header")
	}
	name := string(payload[off : off+int(nameLen)])
	off += int(nameLen)
	numStatic, err := bufUvarint(payload, &off)
	if err != nil || numStatic > maxNumStatic {
		return header{}, formatErr(hdrOff, ErrMalformed, "bad program length in header")
	}
	if off != len(payload) {
		return header{}, formatErr(hdrOff, ErrMalformed, "%d trailing header bytes", len(payload)-off)
	}
	return header{name: name, numStatic: int(numStatic)}, nil
}

// readCRC reads a little-endian CRC32C field.
func readCRC(cr *countingReader, what string) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(cr, buf[:]); err != nil {
		return 0, ioErr(cr.n, err, "reading %s checksum", what)
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

// readPayload reads n declared bytes in bounded chunks, so a hostile
// length field costs at most the bytes actually present in the stream.
func readPayload(cr *countingReader, n int, what string) ([]byte, error) {
	const chunk = 1 << 16
	buf := make([]byte, 0, min(n, chunk))
	for len(buf) < n {
		step := min(n-len(buf), chunk)
		start := len(buf)
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(cr, buf[start:]); err != nil {
			return nil, ioErr(cr.n, err, "reading %s payload", what)
		}
	}
	return buf, nil
}

// readPayloadPooled is readPayload for block payloads, drawing the buffer
// from payloadPool (decodeBlockFrame returns it once the block is
// decoded). The first chunk stays bounded so a hostile length field still
// costs at most the bytes actually present in the stream.
func readPayloadPooled(cr *countingReader, n int) ([]byte, error) {
	const chunk = 1 << 16
	buf := getPayloadBuf(min(n, chunk))
	for len(buf) < n {
		step := min(n-len(buf), chunk)
		start := len(buf)
		if cap(buf) >= start+step {
			buf = buf[:start+step]
		} else {
			buf = append(buf, make([]byte, step)...)
		}
		if _, err := io.ReadFull(cr, buf[start:]); err != nil {
			return nil, ioErr(cr.n, err, "reading block payload")
		}
	}
	return buf, nil
}

// bufUvarint decodes a varint from buf at *off, advancing it.
func bufUvarint(buf []byte, off *int) (uint64, error) {
	v, n := binary.Uvarint(buf[*off:])
	if n <= 0 {
		return 0, errors.New("bad uvarint")
	}
	*off += n
	return v, nil
}

// Name returns the workload name from the header.
func (tr *Reader) Name() string { return tr.name }

// NumStatic returns the static program length from the header.
func (tr *Reader) NumStatic() int { return tr.walk.numStatic }

// Stats returns a snapshot of the reader's progress and damage summary.
func (tr *Reader) Stats() Stats { return tr.stats }

// StaticCounts returns the per-PC execution counts; valid only after Next
// has returned io.EOF, and nil if the footer was lost in lenient mode.
func (tr *Reader) StaticCounts() []uint64 { return tr.counts }

// Close releases the decode pool without reading to io.EOF: the splitter
// and workers drain and exit. Later Next calls fail. It is safe to call at
// any point (including after EOF or an error, where it only releases) and
// is idempotent. Close does not interrupt a Read already in flight on the
// underlying reader.
func (tr *Reader) Close() error {
	tr.shutdown()
	if tr.sticky == nil && !tr.done {
		tr.sticky = errors.New("trace: reader closed")
	}
	return nil
}

// shutdown signals a running splitter and its workers to drain and exit.
func (tr *Reader) shutdown() {
	if tr.quit != nil {
		tr.stop.Do(func() { close(tr.quit) })
	}
}

// fail records a terminal error and releases any pool; every subsequent
// Next repeats it.
func (tr *Reader) fail(err error) error {
	tr.sticky = err
	tr.shutdown()
	return err
}

// recoverableKind reports whether err is format-level damage a lenient
// reader may skip past, as opposed to an I/O failure that must surface.
func recoverableKind(err error) bool {
	return errors.Is(err, ErrMalformed) || errors.Is(err, ErrTruncated) || errors.Is(err, ErrChecksum)
}

// Next decodes the next event into e. It returns io.EOF at the end of the
// event stream, after which StaticCounts is available. In strict mode
// (the default) the first structural problem in stream order is a
// terminal typed error, reported after every event before it; in lenient
// mode the reader skips damaged regions and truncation ends the stream
// cleanly with the damage recorded in Stats.
func (tr *Reader) Next(e *Event) error {
	if err := tr.fill(); err != nil {
		return err
	}
	*e = tr.cur.events[tr.curIdx]
	tr.curIdx++
	tr.stats.Events++
	return nil
}

// fill makes the cursor hold an undelivered event, pulling blocks as
// needed, or returns the reader's terminal error or io.EOF. It is the
// shared pump behind Next and NextBlock.
func (tr *Reader) fill() error {
	if tr.sticky != nil {
		return tr.sticky
	}
	if tr.done {
		return io.EOF
	}
	// The cancellation probe runs at most once per 1024 events so the
	// per-event fast path stays branch-cheap; advance checks again before
	// every block, so a cancelled context is observed within one block.
	if tr.ctx != nil && tr.stats.Events&1023 == 0 && tr.ctx.Err() != nil {
		return tr.fail(canceledErr(tr.ctx))
	}
	for tr.curIdx == len(tr.cur.events) {
		if tr.cur.err != nil {
			return tr.fail(tr.cur.err)
		}
		if err := tr.advance(); err != nil {
			return err
		}
	}
	return nil
}

// advance replaces the exhausted block cursor with the walk's next item:
// a decoded block (possibly empty, when lenient mode skipped its damage),
// or the end of the stream — the footer or a lenient truncation (io.EOF,
// with done set) or a terminal error (already recorded via fail).
func (tr *Reader) advance() error {
	if tr.cur.events != nil && !tr.curHandedOff {
		putEventSlice(tr.cur.events)
	}
	tr.cur, tr.curIdx, tr.curHandedOff = blockResult{}, 0, false
	it, err := tr.pull()
	if err != nil {
		return err
	}
	tr.stats.BlocksSkipped += it.skipBlocks
	tr.stats.BytesSkipped += it.skipBytes
	switch {
	case it.frame != nil:
		tr.setBlock(decodeBlockFrame(it.frame, tr.walk.numStatic, tr.walk.lenient))
	case it.res != nil:
		tr.setBlock(<-it.res)
	case it.footer != nil:
		return tr.endAtFooter(it.footer, it.trailerErr)
	case it.err != nil:
		return tr.fail(it.err)
	default: // eof
		if it.truncated {
			// A footer always ends the walk, so one that never came is lost.
			tr.stats.Truncated, tr.stats.FooterLost = true, true
		}
		return tr.end()
	}
	return nil
}

// pull returns the walk's next item: read inline, or received from the
// splitter. A context that ends first fails the reader.
func (tr *Reader) pull() (walkItem, error) {
	if tr.ctx != nil && tr.ctx.Err() != nil {
		// Checking before the select keeps cancellation deterministic: a
		// ready item never races a done context.
		return walkItem{}, tr.fail(canceledErr(tr.ctx))
	}
	switch {
	case tr.items == nil:
		return tr.walk.next(), nil
	case tr.ctx == nil:
		return <-tr.items, nil
	}
	// The select interrupts the wait on the pipeline, so a consumer stuck
	// behind a stalled source regains control the moment its deadline
	// fires.
	select {
	case it := <-tr.items:
		return it, nil
	case <-tr.ctx.Done():
		return walkItem{}, tr.fail(canceledErr(tr.ctx))
	}
}

// setBlock makes a decoded block current and folds its accounting into
// Stats.
func (tr *Reader) setBlock(r blockResult) {
	tr.stats.Blocks += r.blocks
	tr.stats.BlocksCompressed += r.compressed
	tr.stats.BlocksSkipped += r.blocksSkipped
	tr.stats.BytesSkipped += r.bytesSkipped
	tr.cur = r
}

// endAtFooter ends the stream at its count footer. The footer also
// declares the event total, which strict mode holds against what was
// delivered, and is followed by the trailer magic.
func (tr *Reader) endAtFooter(ff *footerFrame, trailerErr error) error {
	tr.stats.EventsDeclared = ff.total
	if !tr.walk.lenient && ff.total != tr.stats.Events {
		return tr.fail(formatErr(ff.frameOff, ErrMalformed,
			"footer declares %d events, stream has %d", ff.total, tr.stats.Events))
	}
	if trailerErr != nil {
		if !tr.walk.lenient {
			return tr.fail(trailerErr)
		}
		// The counts themselves were CRC-clean; keep them but note the
		// missing trailer.
		tr.stats.Truncated = true
	}
	tr.counts = ff.counts
	return tr.end()
}

// end marks the stream finished and releases any pool.
func (tr *Reader) end() error {
	tr.done = true
	tr.shutdown()
	return io.EOF
}

// --- the frame walk --------------------------------------------------------

// frameWalk reads a stream past its header, one item per call, in stream
// order. It is the only code that does: at Workers(1) the consumer calls
// it inline, and with a pool the splitter goroutine does.
type frameWalk struct {
	cr        *countingReader
	numStatic int
	lenient   bool
}

// walkItem is one step of the frame walk. Exactly one of frame, res,
// footer, err and eof is set; skipBlocks and skipBytes carry the
// damage a lenient walk skipped on the way to it. footer, err and eof end
// the stream.
type walkItem struct {
	frame      *blockFrame      // a block frame, not yet checked or decoded
	res        chan blockResult // a frame on the pool: the worker fills it
	footer     *footerFrame
	trailerErr error // with footer: problem reading the trailing magic
	skipBlocks uint64
	skipBytes  int64
	err        error
	eof        bool
	truncated  bool // with eof: the stream ended before its footer
}

// last reports whether it ends the walk.
func (it *walkItem) last() bool { return it.footer != nil || it.err != nil || it.eof }

// next returns the walk's next item. In lenient mode it skips damaged
// frames, accounting for them on the item it returns; a stream that runs
// out ends with a truncated eof.
func (w *frameWalk) next() walkItem {
	var it walkItem
	for {
		marker, skipped, err := scanMarker(w.cr, w.lenient)
		if err != nil {
			if w.lenient && errors.Is(err, ErrTruncated) {
				it.eof, it.truncated = true, true
			} else {
				it.err = err
			}
			return it
		}
		if skipped > 0 {
			it.skipBlocks++
			it.skipBytes += skipped
		}
		frameStart := w.cr.n - 4 // marker already consumed
		if marker == countMarker {
			ff, ferr := readFooterFrame(w.cr, w.numStatic)
			if ferr == nil {
				it.footer = &ff
				it.trailerErr = readTrailerMagic(w.cr)
				return it
			}
			err = ferr
		} else {
			bf, berr := readBlockFrame(w.cr, marker == blockMarkerC)
			if berr == nil {
				it.frame = &bf
				return it
			}
			err = berr
		}
		if !w.lenient || !recoverableKind(err) {
			it.err = err
			return it
		}
		it.skipBlocks++
		it.skipBytes += w.cr.n - frameStart
	}
}

// scanMarker reads the next 4-byte frame marker. In strict mode anything
// else is malformed; in lenient mode the stream is scanned byte-by-byte
// until a marker appears, returning how many bytes were discarded. Read
// failures come back classified by ioErr (end-of-stream as ErrTruncated).
func scanMarker(cr *countingReader, lenient bool) (string, int64, error) {
	var win [4]byte
	off := cr.n
	if _, err := io.ReadFull(cr, win[:]); err != nil {
		return "", 0, ioErr(cr.n, err, "reading frame marker")
	}
	skipped := int64(0)
	for {
		m := string(win[:])
		if m == blockMarker || m == blockMarkerC || m == countMarker {
			return m, skipped, nil
		}
		if !lenient {
			return "", 0, formatErr(off, ErrMalformed, "bad frame marker %q", win)
		}
		b, err := cr.ReadByte()
		if err != nil {
			return "", 0, ioErr(cr.n, err, "resynchronising")
		}
		copy(win[:], win[1:])
		win[3] = b
		skipped++
	}
}

// blockFrame is one framed event block as read off the stream, before
// CRC verification, decompression, or event decoding.
type blockFrame struct {
	frameOff   int64  // stream offset of the frame marker
	payloadOff int64  // stream offset of the first stored payload byte
	count      uint64 // declared event count
	crc        uint32 // declared CRC32C of the stored payload
	codec      Codec  // how the payload is stored (CodecNone for "BLK2")
	ulen       int    // declared uncompressed payload length
	payload    []byte // stored (possibly compressed) payload bytes
}

// frameLen is the whole frame's size in bytes, marker through payload.
func (bf *blockFrame) frameLen() int64 {
	return bf.payloadOff + int64(len(bf.payload)) - bf.frameOff
}

// readBlockFrame reads a block frame's codec flag, lengths, checksum
// field, and stored payload; the marker is already consumed (compressed
// reports which of the two block markers it was). The CRC is not verified
// and the payload not decompressed here: that is decodeBlockFrame's job,
// which a decode pool runs on its workers.
//
// Every length is validated against maxBlockLen before any allocation —
// critically the declared *uncompressed* length, so a hostile frame
// cannot claim a huge post-inflate size — and the event count is checked
// as count > len/minEventLen (division, not multiplication, so an
// extreme count cannot wrap the check and drive a giant event-slice
// allocation downstream).
func readBlockFrame(cr *countingReader, compressed bool) (blockFrame, error) {
	bf := blockFrame{frameOff: cr.n - 4}
	if compressed {
		codec, err := cr.ReadByte()
		if err != nil {
			return bf, ioErr(cr.n, err, "reading block codec")
		}
		if !Codec(codec).known() {
			return bf, formatErr(bf.frameOff, ErrMalformed, "unknown block codec %d", codec)
		}
		bf.codec = Codec(codec)
	}
	ulen, err := readUvarint(cr, "block length")
	if err != nil {
		return bf, err
	}
	if ulen == 0 || ulen > maxBlockLen {
		return bf, formatErr(bf.frameOff, ErrMalformed, "block length %d out of range", ulen)
	}
	bf.ulen = int(ulen)
	count, err := readUvarint(cr, "block event count")
	if err != nil {
		return bf, err
	}
	if count == 0 || count > ulen/minEventLen {
		return bf, formatErr(bf.frameOff, ErrMalformed, "block event count %d impossible for %d bytes", count, ulen)
	}
	plen := ulen
	if compressed {
		clen, err := readUvarint(cr, "block stored length")
		if err != nil {
			return bf, err
		}
		if clen == 0 || clen > ulen || (bf.codec == CodecNone && clen != ulen) {
			return bf, formatErr(bf.frameOff, ErrMalformed, "block stored length %d impossible for %d uncompressed bytes (codec %s)", clen, ulen, bf.codec)
		}
		plen = clen
	}
	crc, err := readCRC(cr, "block")
	if err != nil {
		return bf, err
	}
	payload, err := readPayloadPooled(cr, int(plen))
	if err != nil {
		return bf, err
	}
	bf.count, bf.crc, bf.payload = count, crc, payload
	bf.payloadOff = cr.n - int64(len(payload))
	return bf, nil
}

// blockResult is one decoded block.
type blockResult struct {
	events []Event
	// err is the terminal error a strict reader reports after delivering
	// events; always nil in lenient mode, where in-block damage becomes
	// skip accounting instead.
	err error
	// blocks is 1 when the payload was CRC-clean (Stats.Blocks).
	blocks uint64
	// compressed is 1 when the payload was stored compressed
	// (Stats.BlocksCompressed).
	compressed uint64
	// blocksSkipped/bytesSkipped carry lenient damage accounting.
	blocksSkipped uint64
	bytesSkipped  int64
}

// decodeBlockFrame CRC-checks, decompresses, and decodes one block, and
// returns its stored payload to the pool. It is the one block decoder,
// whichever goroutine runs it. In strict mode the first damage is an
// error after the cleanly decoded prefix, and a block whose payload
// outlasts its declared count withholds its final event too; in lenient
// mode damage becomes skip accounting and every clean event is delivered.
func decodeBlockFrame(bf *blockFrame, numStatic int, lenient bool) blockResult {
	defer putPayloadBuf(bf.payload)
	var r blockResult
	if crc32.Checksum(bf.payload, castagnoli) != bf.crc {
		if lenient {
			r.blocksSkipped = 1
			r.bytesSkipped = bf.frameLen()
		} else {
			r.err = formatErr(bf.frameOff, ErrChecksum, "block checksum")
		}
		return r
	}
	payload := bf.payload
	if bf.codec != CodecNone {
		inflated, err := expandBlock(bf)
		if err != nil {
			if lenient {
				r.blocksSkipped = 1
				r.bytesSkipped = bf.frameLen()
			} else {
				r.err = err
			}
			return r
		}
		payload = inflated
		defer putPayloadBuf(inflated)
		r.compressed = 1
	}
	r.blocks = 1
	r.events = getEventSlice(int(bf.count))
	off := 0
	for left := bf.count; left > 0; left-- {
		var e Event
		if err := decodeEventBuf(payload, &off, &e, numStatic); err != nil {
			werr := formatErr(bf.payloadOff+int64(off), ErrMalformed, "%v", err)
			if lenient {
				r.blocksSkipped = 1
				r.bytesSkipped = int64(len(payload) - off)
			} else {
				r.err = werr
			}
			return r
		}
		if left == 1 && off != len(payload) {
			// Count and payload disagree; the delivered events were
			// CRC-clean, but the block is damaged.
			junk := formatErr(bf.payloadOff+int64(off), ErrMalformed,
				"%d trailing bytes in block", len(payload)-off)
			if lenient {
				r.events = append(r.events, e)
				r.blocksSkipped = 1
				r.bytesSkipped = int64(len(payload) - off)
			} else {
				r.err = junk
			}
			return r
		}
		r.events = append(r.events, e)
	}
	return r
}

// footerFrame is the parsed static-count footer.
type footerFrame struct {
	frameOff int64    // stream offset of the frame marker
	total    uint64   // declared total event count
	counts   []uint64 // per-PC execution counts
}

// readFooterFrame reads and CRC-verifies the footer frame after its
// marker, parsing the declared event total and static counts. The trailing
// stream magic and the strict declared-vs-delivered check are left to the
// caller (they depend on reader state).
func readFooterFrame(cr *countingReader, numStatic int) (footerFrame, error) {
	ff := footerFrame{frameOff: cr.n - 4}
	plen, err := readUvarint(cr, "footer length")
	if err != nil {
		return ff, err
	}
	// Total events varint plus one varint per static instruction.
	maxFooter := uint64(binary.MaxVarintLen64) * uint64(numStatic+1)
	if plen > maxFooter {
		return ff, formatErr(ff.frameOff, ErrMalformed, "footer length %d out of range", plen)
	}
	want, err := readCRC(cr, "footer")
	if err != nil {
		return ff, err
	}
	payload, err := readPayload(cr, int(plen), "footer")
	if err != nil {
		return ff, err
	}
	if crc32.Checksum(payload, castagnoli) != want {
		return ff, formatErr(ff.frameOff, ErrChecksum, "footer checksum")
	}
	off := 0
	total, uerr := bufUvarint(payload, &off)
	if uerr != nil {
		return ff, formatErr(ff.frameOff, ErrMalformed, "bad footer event count")
	}
	counts := make([]uint64, 0, min(numStatic, 4096))
	for i := 0; i < numStatic; i++ {
		c, uerr := bufUvarint(payload, &off)
		if uerr != nil {
			return ff, formatErr(ff.frameOff, ErrMalformed, "bad static count %d", i)
		}
		counts = append(counts, c)
	}
	if off != len(payload) {
		return ff, formatErr(ff.frameOff, ErrMalformed, "%d trailing footer bytes", len(payload)-off)
	}
	ff.total, ff.counts = total, counts
	return ff, nil
}

// readTrailerMagic consumes the end-of-stream magic that follows the
// footer.
func readTrailerMagic(cr *countingReader) error {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(cr, magic); err != nil {
		return ioErr(cr.n, err, "reading trailer magic")
	}
	if string(magic) != footerMagic {
		return formatErr(cr.n-4, ErrMalformed, "bad trailer magic %q", magic)
	}
	return nil
}

// decodeEventBuf decodes one event record from buf at *off.
func decodeEventBuf(buf []byte, off *int, e *Event, numStatic int) error {
	if *off >= len(buf) {
		return errors.New("event record past end of block")
	}
	op := isa.Op(buf[*off])
	*off++
	pc, err := bufUvarint(buf, off)
	if err != nil {
		return errors.New("bad pc varint")
	}
	if *off >= len(buf) {
		return errors.New("flags past end of block")
	}
	flags := buf[*off]
	*off++
	*e = Event{PC: uint32(pc), Op: op, NSrc: flags & flagNSrcMask, DstReg: isa.NoReg,
		Taken: flags&flagTaken != 0, HasImm: flags&flagImm != 0}
	for i := uint8(0); i < e.NSrc && i < 2; i++ {
		if *off >= len(buf) {
			return errors.New("src reg past end of block")
		}
		e.SrcReg[i] = buf[*off]
		*off++
		val, err := bufUvarint(buf, off)
		if err != nil {
			return errors.New("bad src val varint")
		}
		e.SrcVal[i] = uint32(val)
	}
	if flags&flagDst != 0 {
		if *off >= len(buf) {
			return errors.New("dst reg past end of block")
		}
		e.DstReg = buf[*off]
		*off++
		val, err := bufUvarint(buf, off)
		if err != nil {
			return errors.New("bad dst val varint")
		}
		e.DstVal = uint32(val)
	}
	if flags&flagMem != 0 {
		addr, err := bufUvarint(buf, off)
		if err != nil {
			return errors.New("bad mem addr varint")
		}
		val, err := bufUvarint(buf, off)
		if err != nil {
			return errors.New("bad mem val varint")
		}
		e.Addr = uint32(addr)
		e.MemVal = uint32(val)
	}
	return checkEvent(e, numStatic)
}

// --- whole-stream helpers ------------------------------------------------

// drain consumes every event from tr into a Trace (without counts).
func drain(tr *Reader) (*Trace, error) {
	t := &Trace{Name: tr.Name(), NumStatic: tr.NumStatic()}
	var e Event
	for {
		err := tr.Next(&e)
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return t, err
		}
		t.Events = append(t.Events, e)
	}
}

// rebuildCounts reconstructs per-PC execution counts from the events
// themselves (used when the footer is missing or untrustworthy).
func rebuildCounts(t *Trace) []uint64 {
	counts := make([]uint64, t.NumStatic)
	for i := range t.Events {
		if int(t.Events[i].PC) < len(counts) {
			counts[t.Events[i].PC]++
		}
	}
	return counts
}

// ReadAll decodes an entire stream into an in-memory Trace. If the stream
// is truncated (missing footer), the recovered prefix is returned together
// with an error matching ErrTruncated — the prefix decoded cleanly and its
// StaticCount is rebuilt from the recovered events.
func ReadAll(r io.Reader) (*Trace, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	t, err := drain(tr)
	if err != nil {
		if errors.Is(err, ErrTruncated) {
			t.StaticCount = rebuildCounts(t)
			return t, err
		}
		return nil, err
	}
	t.StaticCount = tr.StaticCounts()
	return t, nil
}

// ReadAllLenient decodes a possibly damaged stream, recovering whatever
// events survive and summarising the damage in Stats. The error is non-nil
// only for failures recovery cannot help with: an unreadable header or an
// underlying I/O error. When the footer survived, StaticCount carries the
// producer's true execution counts (which may exceed what the recovered
// events replay); when it was lost, counts are rebuilt from the events.
func ReadAllLenient(r io.Reader) (*Trace, Stats, error) {
	tr, err := NewReader(r, Lenient())
	if err != nil {
		return nil, Stats{}, err
	}
	t, err := drain(tr)
	if counts := tr.StaticCounts(); counts != nil {
		t.StaticCount = counts
	} else {
		t.StaticCount = rebuildCounts(t)
	}
	return t, tr.Stats(), err
}

// ReadFile loads a trace file written by WriteFile or cmd/tracegen.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAll(f)
}

// ReadFileLenient loads a possibly damaged trace file in recovery mode.
func ReadFileLenient(path string) (*Trace, Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Stats{}, err
	}
	defer f.Close()
	return ReadAllLenient(f)
}

// WriteFile stores a trace to path in the current format version.
func WriteFile(path string, t *Trace, opts ...WriteOption) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteAll(f, t, opts...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
