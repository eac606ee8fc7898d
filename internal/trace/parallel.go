package trace

// This file runs the decode pool behind Workers(n) for n > 1. The framed
// format was designed for it: blocks are self-delimited and independently
// checksummed, so their expensive work (CRC verification, inflation and
// event decoding) can run in parallel while one splitter goroutine walks
// the frame structure in stream order.
//
//	splitter ──jobs──▶ worker pool ──(per-block result chans)──▶ consumer
//	    └───────────── in-order item stream ──────────────────────┘
//
// The splitter runs the same frame walk the inline reader runs, hands each
// block frame to a bounded worker pool, and forwards the walk's items in
// order. Each block item carries a one-buffered result channel its worker
// fills with decodeBlockFrame's verdict; the consumer receives items in
// stream order and waits on each block's channel, which re-establishes
// the original event order no matter how workers finish. Because result
// channels are buffered, workers never block on a slow or departed
// consumer; backpressure comes from the bounded jobs and item channels,
// which also bounds memory to O(workers) blocks.
//
// Since the walk and the block decoder are the inline reader's own, the
// first failure in *stream order* (not discovery order) is the one
// reported, with the same types, offsets, messages and Stats.

// pjob is one block frame handed to the worker pool.
type pjob struct {
	bf  *blockFrame
	res chan blockResult // buffered(1): the worker's send never blocks
}

// startPool moves the frame walk onto a splitter goroutine feeding n block
// decoders; the consumer then reads the walk from tr.items.
func (tr *Reader) startPool(n int) {
	// The items buffer lets the walk run 2n frames ahead of the consumer,
	// enough to keep n workers busy while it waits on the oldest block.
	tr.items = make(chan walkItem, 2*n)
	tr.quit = make(chan struct{})
	jobs := make(chan pjob, n)
	for i := 0; i < n; i++ {
		go decodeWorker(jobs, tr.walk.numStatic, tr.walk.lenient)
	}
	go tr.split(jobs)
}

// decodeWorker drains the job channel until it closes. Sends never block
// (result channels are buffered), so a worker can always run to
// completion once the splitter stops producing.
func decodeWorker(jobs <-chan pjob, numStatic int, lenient bool) {
	for j := range jobs {
		j.res <- decodeBlockFrame(j.bf, numStatic, lenient)
	}
}

// split walks the stream, dispatches block frames to the worker pool, and
// forwards the in-order item stream. It always ends with the walk's last
// item unless the consumer has already quit.
func (tr *Reader) split(jobs chan<- pjob) {
	defer close(jobs)
	for {
		it := tr.walk.next()
		if it.frame != nil {
			res := make(chan blockResult, 1)
			select {
			case jobs <- pjob{bf: it.frame, res: res}:
			case <-tr.quit:
				return
			}
			it.frame, it.res = nil, res
		}
		if !tr.emit(it) || it.last() {
			return
		}
	}
}

// emit forwards one in-order item, reporting false once the consumer has
// abandoned the stream.
func (tr *Reader) emit(it walkItem) bool {
	select {
	case tr.items <- it:
		return true
	case <-tr.quit:
		return false
	}
}
