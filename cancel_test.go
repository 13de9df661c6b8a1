package treeclock

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// cancelTrace returns a valid text trace with 2*pairs events spread
// over two threads; every pair is an independent conflict so any
// prefix is a well-formed trace.
func cancelTrace(pairs int) []byte {
	var b bytes.Buffer
	for i := 0; i < pairs; i++ {
		b.WriteString("t0 w x\nt1 w x\n")
	}
	return b.Bytes()
}

// cancelAt returns stream options that cancel ctx once roughly
// `after` events have been ingested.
func cancelAt(ctx context.Context, cancel context.CancelFunc, after uint64) []StreamOption {
	return []StreamOption{
		StreamValidate(),
		WithContext(ctx),
		WithProgress(after, func(Progress) { cancel() }),
	}
}

// expectCancelled asserts the run stopped early with ctx.Err() and a
// consistent partial result.
func expectCancelled(t *testing.T, res *StreamResult, err error, total uint64) {
	t.Helper()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	if res.Events == 0 || res.Events >= total {
		t.Fatalf("partial result covers %d events, want within (0, %d)", res.Events, total)
	}
	if res.Mem == nil {
		t.Fatal("partial result missing MemStats")
	}
}

// checkGoroutines polls until the goroutine count returns to the
// pre-run baseline, failing with a full stack dump if it never does —
// a cancelled run must not leak its decoder or worker goroutines.
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after cancellation: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelStream covers WithContext across the three driver shapes:
// the sequential loop, the pipelined decoder, and the sharded parallel
// runtime. Each run must stop shortly after cancellation, return the
// partial result alongside ctx.Err(), and leave no goroutines behind.
func TestCancelStream(t *testing.T) {
	const pairs = 30_000
	const total = 2 * pairs
	text := cancelTrace(pairs)

	run := func(t *testing.T, f func(opts ...StreamOption) (*StreamResult, error)) {
		t.Helper()
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		res, err := f(cancelAt(ctx, cancel, 2048)...)
		expectCancelled(t, res, err, total)
		checkGoroutines(t, base)
	}

	t.Run("sequential", func(t *testing.T) {
		run(t, func(opts ...StreamOption) (*StreamResult, error) {
			return RunStream("wcp-tree", bytes.NewReader(text), opts...)
		})
	})
	t.Run("pipelined", func(t *testing.T) {
		run(t, func(opts ...StreamOption) (*StreamResult, error) {
			opts = append(opts, WithPipeline(2))
			return RunStream("wcp-tree", bytes.NewReader(text), opts...)
		})
	})
	t.Run("parallel", func(t *testing.T) {
		run(t, func(opts ...StreamOption) (*StreamResult, error) {
			opts = append(opts, WithWorkers(2))
			return RunStream("wcp-tree", bytes.NewReader(text), opts...)
		})
	})
}

// TestCancelBeforeStart pins that an already-cancelled context stops
// the run at the first batch boundary with a zero-event partial
// result, in both drivers.
func TestCancelBeforeStart(t *testing.T) {
	text := cancelTrace(64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mode := range []string{"sequential", "parallel"} {
		t.Run(mode, func(t *testing.T) {
			var res *StreamResult
			var err error
			if mode == "sequential" {
				res, err = RunStream("hb-tree", bytes.NewReader(text), WithContext(ctx))
			} else {
				res, err = RunStream("hb-tree", bytes.NewReader(text),
					WithContext(ctx), WithWorkers(2))
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res == nil {
				t.Fatal("no partial result")
			}
			if res.Events != 0 {
				t.Fatalf("pre-cancelled run processed %d events, want 0", res.Events)
			}
		})
	}
}
