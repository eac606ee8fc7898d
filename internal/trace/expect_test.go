package trace

import (
	"encoding/binary"
	"errors"
	"testing"
)

// This file derives, from a clean v2 stream and the damage a test injects
// into it, what any correct decode must show: which events survive, which
// error a strict reader reports and after how many events, and how a
// lenient reader accounts for the damage. The derivation reads only the
// clean stream's frame layout, never the decoder, so a matrix case checks
// the reader against the encoded trace and not against itself.

// frameSpan locates one frame of a clean stream.
type frameSpan struct {
	off    int // the frame marker
	crcOff int // the CRC field; the stored payload follows it up to end
	end    int
	// first and count place a block's events in the trace.
	first, count int
	compressed   bool // the payload is stored compressed
}

// streamLayout is a clean v2 stream's frame structure.
type streamLayout struct {
	hdrEnd  int
	blocks  []frameSpan
	footer  frameSpan
	trailer int // the trailer magic, the stream's last four bytes
	events  int
}

// layoutOf parses a clean v2 stream's framing.
func layoutOf(t testing.TB, stream []byte) streamLayout {
	t.Helper()
	off := len(headerMagic) + 1
	uv := func() int {
		v, n := binary.Uvarint(stream[off:])
		if n <= 0 {
			t.Fatalf("layout: bad varint at offset %d", off)
		}
		off += n
		return int(v)
	}
	off += 4 + uv() // header CRC and payload
	l := streamLayout{hdrEnd: off}
	for {
		start := off
		marker := string(stream[off : off+4])
		off += 4
		switch marker {
		case countMarker:
			plen := uv()
			l.footer = frameSpan{off: start, crcOff: off, end: off + 4 + plen}
			l.trailer = l.footer.end
			if l.trailer+len(footerMagic) != len(stream) {
				t.Fatalf("layout: %d bytes after the trailer magic", len(stream)-l.trailer-len(footerMagic))
			}
			return l
		case blockMarker, blockMarkerC:
			codec := CodecNone
			if marker == blockMarkerC {
				codec = Codec(stream[off])
				off++
			}
			plen := uv()
			count := uv()
			if marker == blockMarkerC {
				plen = uv()
			}
			l.blocks = append(l.blocks, frameSpan{off: start, crcOff: off, end: off + 4 + plen,
				first: l.events, count: count, compressed: codec != CodecNone})
			l.events += count
			off += 4 + plen
		default:
			t.Fatalf("layout: no frame marker at offset %d", start)
		}
	}
}

// blockAt returns the index of the block frame holding offset off.
func (l *streamLayout) blockAt(off int) int {
	for i, b := range l.blocks {
		if off < b.end {
			return i
		}
	}
	panic("offset past the block frames")
}

// decoded is the Stats of a clean decode of the blocks before block k
// (all of them for k = len(l.blocks)), with no footer read yet.
func (l *streamLayout) decoded(k int) Stats {
	s := Stats{Version: Version2}
	for _, b := range l.blocks[:k] {
		s.Blocks++
		if b.compressed {
			s.BlocksCompressed++
		}
		s.Events += uint64(b.count)
	}
	return s
}

// strictWant is what a strict decode must show.
type strictWant struct {
	ctor bool  // the header is damaged: the constructor fails typed
	kind error // the terminal error's sentinel; nil accepts any typed error
	// delivered is the exact number of events before the error, or -1
	// when the damage lets a decoder deliver part of the damaged block; at
	// least atLeast events are delivered either way.
	delivered, atLeast int
}

// lenientWant is what a lenient decode must show.
type lenientWant struct {
	ctor bool
	// exact: the events are the trace without events[lost[0]:lost[1]],
	// Stats equal stats, and the footer's counts survive iff counts.
	exact  bool
	lost   [2]int
	stats  Stats
	counts bool
	// Otherwise the events are a subsequence of the trace that begins
	// with its first keep events, and the damage shows in Stats.
	keep int
}

// expectFlip derives both modes' outcomes for one flipped byte at off.
// The block and footer fields that hold lengths and counts give only
// bounds: a changed length moves the frame walk in ways only a decoder
// can follow.
func expectFlip(l streamLayout, off int) (strictWant, lenientWant) {
	n := l.events
	all := l.decoded(len(l.blocks))
	switch {
	case off < l.hdrEnd:
		return strictWant{ctor: true}, lenientWant{ctor: true}
	case off >= l.trailer:
		s := all
		s.EventsDeclared, s.Truncated = uint64(n), true
		return strictWant{kind: ErrMalformed, delivered: n, atLeast: n},
			lenientWant{exact: true, stats: s, counts: true}
	case off >= l.footer.off:
		f := l.footer
		s := all
		s.Truncated, s.FooterLost = true, true
		switch {
		case off < f.off+4: // marker: the resync scan runs off the end
			return strictWant{kind: ErrMalformed, delivered: n, atLeast: n},
				lenientWant{exact: true, stats: s}
		case off >= f.crcOff:
			s.BlocksSkipped, s.BytesSkipped = 1, int64(f.end-f.off)
			return strictWant{kind: ErrChecksum, delivered: n, atLeast: n},
				lenientWant{exact: true, stats: s}
		}
		return strictWant{delivered: n, atLeast: n}, lenientWant{keep: n}
	}
	k := l.blockAt(off)
	b := l.blocks[k]
	if off >= b.off+4 && off < b.crcOff { // codec, lengths, count
		return strictWant{delivered: -1, atLeast: b.first}, lenientWant{keep: b.first}
	}
	kind := ErrChecksum
	if off < b.off+4 {
		kind = ErrMalformed // bad frame marker
	}
	// The reader skips exactly the damaged frame: a marker flip by
	// scanning to the next marker, a CRC or payload flip by its checksum.
	s := all
	s.Blocks--
	if b.compressed {
		s.BlocksCompressed--
	}
	s.Events -= uint64(b.count)
	s.EventsDeclared = uint64(n)
	s.BlocksSkipped, s.BytesSkipped = 1, int64(b.end-b.off)
	return strictWant{kind: kind, delivered: b.first, atLeast: b.first},
		lenientWant{exact: true, lost: [2]int{b.first, b.first + b.count}, stats: s, counts: true}
}

// expectCut derives both modes' outcomes for the stream cut to its first
// cut bytes (cut < len(stream)).
func expectCut(l streamLayout, cut int) (strictWant, lenientWant) {
	n := l.events
	if cut < l.hdrEnd {
		return strictWant{ctor: true, kind: ErrTruncated}, lenientWant{ctor: true}
	}
	if cut >= l.trailer {
		s := l.decoded(len(l.blocks))
		s.EventsDeclared, s.Truncated = uint64(n), true
		return strictWant{kind: ErrTruncated, delivered: n, atLeast: n},
			lenientWant{exact: true, stats: s, counts: true}
	}
	// The cut lands in block k's frame, or in the footer's (k = blocks).
	k, start := len(l.blocks), l.footer.off
	if cut < l.footer.off {
		k = l.blockAt(cut)
		start = l.blocks[k].off
	}
	s := l.decoded(k)
	s.Truncated, s.FooterLost = true, true
	if cut-start >= 4 {
		// The marker was read, so the partial frame is skipped damage.
		s.BlocksSkipped, s.BytesSkipped = 1, int64(cut-start)
	}
	got := int(s.Events)
	return strictWant{kind: ErrTruncated, delivered: got, atLeast: got},
		lenientWant{exact: true, lost: [2]int{got, n}, stats: s}
}

// checkStrict holds a strict run to w: a typed error after an exact
// prefix of the trace.
func checkStrict(t *testing.T, label string, run decodeRun, orig *Trace, w strictWant) {
	t.Helper()
	if w.ctor {
		if run.ctorErr == nil || !typedErr(run.ctorErr) || (w.kind != nil && !errors.Is(run.ctorErr, w.kind)) {
			t.Fatalf("%s: constructor error %v, want a typed header failure (%v)", label, run.ctorErr, w.kind)
		}
		return
	}
	if run.ctorErr != nil {
		t.Fatalf("%s: header failed: %v", label, run.ctorErr)
	}
	if run.err == nil || !typedErr(run.err) || (w.kind != nil && !errors.Is(run.err, w.kind)) {
		t.Fatalf("%s: terminal error %v, want typed %v", label, run.err, w.kind)
	}
	if (w.delivered >= 0 && len(run.events) != w.delivered) || len(run.events) < w.atLeast {
		t.Fatalf("%s: %d events before the error, want %d (at least %d)", label, len(run.events), w.delivered, w.atLeast)
	}
	for i := range run.events {
		if run.events[i] != orig.Events[i] {
			t.Fatalf("%s: delivered event %d is not the trace's", label, i)
		}
	}
}

// checkLenient holds a lenient run to w.
func checkLenient(t *testing.T, label string, run decodeRun, orig *Trace, w lenientWant) {
	t.Helper()
	if w.ctor {
		if run.ctorErr == nil || !typedErr(run.ctorErr) {
			t.Fatalf("%s: constructor error %v, want a typed header failure", label, run.ctorErr)
		}
		return
	}
	if run.ctorErr != nil || run.err != nil {
		t.Fatalf("%s: lenient decode failed: ctor %v, next %v", label, run.ctorErr, run.err)
	}
	if !w.exact {
		if len(run.events) < w.keep || !isSubsequence(run.events, orig.Events) {
			t.Fatalf("%s: %d recovered events are not a subsequence keeping the first %d", label, len(run.events), w.keep)
		}
		for i := 0; i < w.keep; i++ {
			if run.events[i] != orig.Events[i] {
				t.Fatalf("%s: undamaged event %d lost", label, i)
			}
		}
		if run.stats.BlocksSkipped == 0 && !run.stats.Truncated {
			t.Fatalf("%s: damage not recorded: %+v", label, run.stats)
		}
		return
	}
	want := append(append([]Event(nil), orig.Events[:w.lost[0]]...), orig.Events[w.lost[1]:]...)
	if !equalEvents(run.events, want) {
		t.Fatalf("%s: recovered %d events, want the trace without events [%d,%d)", label, len(run.events), w.lost[0], w.lost[1])
	}
	if run.stats != w.stats {
		t.Fatalf("%s: stats\n  got  %+v\n  want %+v", label, run.stats, w.stats)
	}
	if w.counts != (run.counts != nil) || (w.counts && !equalCounts(run.counts, orig.StaticCount)) {
		t.Fatalf("%s: static counts %v, want the footer's: %v", label, run.counts, w.counts)
	}
}

// checkClean holds a decode of an undamaged stream to its trace: every
// event and static count, and Stats with no damage.
func checkClean(t *testing.T, label string, run decodeRun, orig *Trace, want Stats) {
	t.Helper()
	if run.ctorErr != nil || run.err != nil {
		t.Fatalf("%s: clean decode failed: ctor %v, next %v", label, run.ctorErr, run.err)
	}
	if run.name != orig.Name || run.numStatic != orig.NumStatic {
		t.Fatalf("%s: header (%q, %d), want (%q, %d)", label, run.name, run.numStatic, orig.Name, orig.NumStatic)
	}
	if !equalEvents(run.events, orig.Events) {
		t.Fatalf("%s: decoded %d events, not the trace's %d", label, len(run.events), len(orig.Events))
	}
	if !equalCounts(run.counts, orig.StaticCount) {
		t.Fatalf("%s: static counts %v, want %v", label, run.counts, orig.StaticCount)
	}
	if run.stats != want {
		t.Fatalf("%s: stats\n  got  %+v\n  want %+v", label, run.stats, want)
	}
}

// cleanStats is the Stats of a whole clean decode of a v2 stream.
func cleanStats(t testing.TB, stream []byte) Stats {
	l := layoutOf(t, stream)
	s := l.decoded(len(l.blocks))
	s.EventsDeclared = uint64(l.events)
	return s
}

func equalEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalCounts(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
