package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
)

// captureBlocks drains a parallel reader through NextBlock and records the
// same observable outcome as capture, plus the block index sequence — the
// material for holding the block view equal to the event view.
func captureBlocks(t *testing.T, data []byte, opts ...ReaderOption) (decodeRun, []uint64) {
	t.Helper()
	r, err := NewParallelReader(bytes.NewReader(data), opts...)
	if err != nil {
		return decodeRun{ctorErr: err.Error()}, nil
	}
	defer r.Close()
	run := decodeRun{name: r.Name(), numStatic: r.NumStatic(), version: r.Version()}
	var indices []uint64
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
			run.finalErr = err.Error()
			run.truncated = errors.Is(err, ErrTruncated)
			run.malformed = errors.Is(err, ErrMalformed)
			run.checksum = errors.Is(err, ErrChecksum)
			break
		}
		indices = append(indices, b.Index)
		run.events = append(run.events, b.Events...)
	}
	run.stats = r.Stats()
	run.counts = r.StaticCounts()
	return run, indices
}

// TestBlockDifferentialCorpus holds the per-block view equal to the
// sequential event view over every corpus shape and worker count: same
// events in the same order, same Stats, same terminal error, same counts,
// with strictly increasing block indices.
func TestBlockDifferentialCorpus(t *testing.T) {
	corpus := encodeCorpus(t)
	for name, data := range corpus {
		for _, workers := range []int{0, 1, 2, 4} {
			for _, lenient := range []bool{false, true} {
				label := fmt.Sprintf("%s/workers=%d/lenient=%v", name, workers, lenient)
				var opts []ReaderOption
				if lenient {
					opts = append(opts, Lenient())
				}
				seq := captureSequential(t, data, opts...)
				blk, indices := captureBlocks(t, data, append(opts, Workers(workers))...)
				diffRuns(t, label, seq, blk)
				for i := 1; i < len(indices); i++ {
					if indices[i] <= indices[i-1] {
						t.Fatalf("%s: block indices not increasing: %v", label, indices)
					}
				}
			}
		}
	}
}

// TestBlockMixedWithNext interleaves Next and NextBlock on one stream:
// NextBlock must deliver exactly the remainder of a partially consumed
// block, and the concatenation must reproduce the full event sequence.
func TestBlockMixedWithNext(t *testing.T) {
	data, tr := smallV2Stream(t, 64)
	r, err := NewParallelReader(bytes.NewReader(data), Workers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got []Event
	for i := 0; ; i++ {
		if i%2 == 0 {
			var e Event
			err := r.Next(&e)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, e)
			continue
		}
		var b Block
		err := r.NextBlock(&b)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b.Events...)
	}
	if len(got) != len(tr.Events) {
		t.Fatalf("mixed drain got %d events, want %d", len(got), len(tr.Events))
	}
	for i := range got {
		if got[i] != tr.Events[i] {
			t.Fatalf("event %d differs after mixed drain", i)
		}
	}
}
