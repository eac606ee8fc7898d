package trace

import "sync"

// This file exposes the reader's decoded blocks. Block consumers (the
// observer fan-out behind core.AnalyzeFile) take whole blocks via NextBlock instead of
// paying for the event-by-event copy of Next. Both views drain the same
// cursor, so Stats, error contracts, and StaticCounts behave identically.

// Block is one contiguous in-order run of decoded events. Index is the
// block's position in stream order among delivered blocks (0, 1, 2, …).
// A block is one frame of the file, or the rest of one that Next has
// partly consumed.
type Block struct {
	Index  uint64
	Events []Event
}

// NextBlock decodes the next event block into b, in stream order. The
// error contract is Next's: io.EOF ends the stream (after which
// StaticCounts is available), strict mode fails sticky on the first
// structural problem in stream order — after delivering any cleanly
// decoded prefix of the damaged block — and lenient mode records skipped
// damage in Stats.
//
// Ownership of b.Events transfers to the caller; the reader never reuses
// the slice afterwards. NextBlock and Next may be mixed: NextBlock
// delivers whatever remains of a block partially consumed by Next.
func (tr *Reader) NextBlock(b *Block) error {
	if err := tr.fill(); err != nil {
		return err
	}
	b.Index = tr.blockSeq
	b.Events = tr.cur.events[tr.curIdx:]
	tr.blockSeq++
	tr.stats.Events += uint64(len(b.Events))
	tr.curIdx = len(tr.cur.events)
	tr.curHandedOff = true
	return nil
}

// ReleaseBlock returns a block obtained from NextBlock to the reader's
// event-slice pool. NextBlock transfers slice ownership to the caller and
// never reuses it, so without release every delivered block costs a fresh
// allocation; a consumer that is finished with b.Events before asking for
// the next block can hand the buffer back and keep the whole sweep at
// O(block · workers) allocation.
// After ReleaseBlock, b.Events must not be touched (the slice may be
// reused for a future block at any time). Releasing a block is optional
// and only ever a performance matter.
func (tr *Reader) ReleaseBlock(b *Block) {
	if b.Events != nil {
		putEventSlice(b.Events)
		b.Events = nil
	}
}

// --- buffer pools ---------------------------------------------------------
//
// The decoder's two hot allocations — the raw block payload the frame walk
// reads and the decoded event slice decodeBlockFrame produces — both have
// bounded, well-defined lifetimes, so they recycle through sync.Pools:
// payloads return to the pool as soon as their block is decoded, and
// event slices return once Next's cursor has fully handed them off, or
// when a NextBlock caller hands them back through ReleaseBlock.

var payloadPool sync.Pool

// getPayloadBuf returns an empty byte buffer, reusing pooled capacity.
func getPayloadBuf(capHint int) []byte {
	if v := payloadPool.Get(); v != nil {
		buf := (*v.(*[]byte))[:0]
		if cap(buf) >= capHint {
			return buf
		}
	}
	return make([]byte, 0, capHint)
}

// putPayloadBuf recycles a payload buffer once nothing references it.
func putPayloadBuf(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	payloadPool.Put(&buf)
}

var eventPool sync.Pool

// getEventSlice returns an empty event slice with at least the hinted
// capacity, reusing pooled backing arrays when large enough.
func getEventSlice(capHint int) []Event {
	if v := eventPool.Get(); v != nil {
		s := (*v.(*[]Event))[:0]
		if cap(s) >= capHint {
			return s
		}
	}
	return make([]Event, 0, capHint)
}

// putEventSlice recycles a decoded event slice once nothing references it.
func putEventSlice(s []Event) {
	if cap(s) == 0 {
		return
	}
	eventPool.Put(&s)
}
