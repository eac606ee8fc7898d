package trace

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

// blockSpan is one delivered block: its Index and its event count.
type blockSpan struct {
	index uint64
	n     int
}

// captureBlocks drains a reader through NextBlock and records the same
// observable outcome as capture, plus the delivered blocks — the material
// for holding the block view equal to the event view.
func captureBlocks(t *testing.T, data []byte, opts ...ReaderOption) (decodeRun, []blockSpan) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data), opts...)
	if err != nil {
		return decodeRun{ctorErr: err}, nil
	}
	defer r.Close()
	run := decodeRun{name: r.Name(), numStatic: r.NumStatic()}
	var blocks []blockSpan
	for i := 0; ; i++ {
		if i > 1_000_000 {
			t.Fatal("block reader failed to terminate")
		}
		var b Block
		err := r.NextBlock(&b)
		if err == io.EOF {
			break
		}
		if err != nil {
			run.err = err
			break
		}
		blocks = append(blocks, blockSpan{b.Index, len(b.Events)})
		run.events = append(run.events, b.Events...)
	}
	run.stats = r.Stats()
	run.counts = r.StaticCounts()
	return run, blocks
}

// TestBlockDifferentialCorpus holds the per-block view equal to the
// inline event view over every corpus shape and worker count, and both to
// the encoded trace: same events in the same order, same Stats, same
// terminal error, same counts, with block indices 0, 1, 2, ….
func TestBlockDifferentialCorpus(t *testing.T) {
	for name, c := range encodeCorpus(t) {
		for _, workers := range []int{0, 1, 2, 4} {
			for _, lenient := range []bool{false, true} {
				label := fmt.Sprintf("%s/workers=%d/lenient=%v", name, workers, lenient)
				var opts []ReaderOption
				if lenient {
					opts = append(opts, Lenient())
				}
				blk, blocks := captureBlocks(t, c.data, append(opts, Workers(workers))...)
				diffRuns(t, label, decode(t, c.data, opts...), blk)
				checkCorpusCase(t, label, c, blk)
				for i, b := range blocks {
					if b.index != uint64(i) || b.n == 0 {
						t.Fatalf("%s: block %d delivered as %+v", label, i, b)
					}
				}
			}
		}
	}
}

// TestNextBlockRealBlocks checks NextBlock hands out the file's own
// blocks whatever the worker count: a BlockEvents(16) stream arrives as
// 16-event blocks (the last one short) with indices 0, 1, 2, …, inline
// exactly as on a pool.
func TestNextBlockRealBlocks(t *testing.T) {
	tr := bigTrace(t, 16*20+5)
	var buf bytes.Buffer
	if err := WriteAll(&buf, tr, BlockEvents(16)); err != nil {
		t.Fatal(err)
	}
	var want []blockSpan
	for i := 0; i*16 < len(tr.Events); i++ {
		want = append(want, blockSpan{uint64(i), min(16, len(tr.Events)-i*16)})
	}
	for _, workers := range []int{1, 4} {
		run, blocks := captureBlocks(t, buf.Bytes(), Workers(workers))
		checkClean(t, fmt.Sprintf("workers=%d", workers), run, tr, cleanStats(t, buf.Bytes()))
		if fmt.Sprint(blocks) != fmt.Sprint(want) {
			t.Fatalf("workers=%d: blocks %v, want %v", workers, blocks, want)
		}
	}
}

// TestBlockMixedWithNext interleaves Next and NextBlock on one stream,
// inline and on a pool: NextBlock must deliver exactly the remainder of a
// partially consumed block, and the concatenation must reproduce the full
// event sequence.
func TestBlockMixedWithNext(t *testing.T) {
	data, tr := smallV2Stream(t, 64)
	for _, workers := range []int{1, 4} {
		r, err := NewReader(bytes.NewReader(data), Workers(workers))
		if err != nil {
			t.Fatal(err)
		}
		var got []Event
		for i := 0; err == nil; i++ {
			if i%2 == 0 {
				var e Event
				if err = r.Next(&e); err == nil {
					got = append(got, e)
				}
				continue
			}
			var b Block
			if err = r.NextBlock(&b); err == nil {
				got = append(got, b.Events...)
			}
		}
		r.Close()
		if err != io.EOF {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !equalEvents(got, tr.Events) {
			t.Fatalf("workers=%d: mixed drain got %d events, not the trace's %d", workers, len(got), len(tr.Events))
		}
	}
}
