package trace

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"
)

// TestReaderContextCancel verifies a reader fails sticky with an error
// matching context.Canceled once the bound context is cancelled, instead
// of decoding to EOF — inline ("sequential") and on a pool ("parallel").
func TestReaderContextCancel(t *testing.T) {
	stream, _ := smallV2Stream(t, 64)
	readers := map[string]func(ctx context.Context) (*Reader, error){
		"sequential": func(ctx context.Context) (*Reader, error) {
			return NewReader(bytes.NewReader(stream), WithContext(ctx))
		},
		"parallel": func(ctx context.Context) (*Reader, error) {
			return NewReader(bytes.NewReader(stream), WithContext(ctx), Workers(4))
		},
	}
	for name, open := range readers {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			r, err := open(ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			var e Event
			for i := 0; i < 3; i++ {
				if err := r.Next(&e); err != nil {
					t.Fatalf("event %d before cancel: %v", i, err)
				}
			}
			cancel()
			for err == nil {
				err = r.Next(&e)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled after cancel, got %v", err)
			}
			if again := r.Next(&e); !errors.Is(again, context.Canceled) {
				t.Fatalf("cancellation not sticky: %v", again)
			}
		})
	}
}

// TestReaderContextPreCancelled verifies a context cancelled before any
// decoding yields no events at all, inline or on a pool.
func TestReaderContextPreCancelled(t *testing.T) {
	stream, _ := smallV2Stream(t, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, err := range map[string]error{
		"sequential": func() error {
			r, err := NewReader(bytes.NewReader(stream), WithContext(ctx))
			if err != nil {
				return err
			}
			var e Event
			return r.Next(&e)
		}(),
		"parallel": func() error {
			r, err := NewReader(bytes.NewReader(stream), WithContext(ctx), Workers(2))
			if err != nil {
				return err
			}
			defer r.Close()
			var e Event
			return r.Next(&e)
		}(),
	} {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: want context.Canceled from first Next, got %v", name, err)
		}
	}
}

// TestParallelContextCancelStalledSource cancels a pooled reader whose
// source has stalled mid-stream (an io.Pipe with no writer activity): Next
// must return promptly with the context error rather than blocking behind
// the stalled splitter, and the pipeline must drain once the source
// unblocks.
func TestParallelContextCancelStalledSource(t *testing.T) {
	stream, _ := smallV2Stream(t, 16)
	base := runtime.NumGoroutine()

	pr, pw := io.Pipe()
	// Feed everything except the last few bytes, then stall forever.
	go pw.Write(stream[:len(stream)-8])

	ctx, cancel := context.WithCancel(context.Background())
	r, err := NewReader(pr, WithContext(ctx), Workers(2))
	if err != nil {
		t.Fatal(err)
	}

	errCh := make(chan error, 1)
	go func() {
		var e Event
		var nerr error
		for nerr == nil {
			nerr = r.Next(&e)
		}
		errCh <- nerr
	}()
	// Give the consumer time to drain what the pipe delivered and block on
	// the stalled tail, then cancel.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case nerr := <-errCh:
		if !errors.Is(nerr, context.Canceled) {
			t.Fatalf("want context.Canceled from stalled decode, got %v", nerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next still blocked 5s after cancellation")
	}
	r.Close()
	pw.CloseWithError(io.ErrClosedPipe) // unblock the splitter's pending read
	pr.Close()
	waitNoExtraGoroutines(t, base)
}
