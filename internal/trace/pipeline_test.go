package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// pipelineText builds a modest trace exercising every event kind.
func pipelineText(events int) string {
	var b strings.Builder
	for i := 0; i < events; i++ {
		switch i % 5 {
		case 0:
			fmt.Fprintf(&b, "t%d acq l%d\n", i%4, i%3)
		case 1:
			fmt.Fprintf(&b, "t%d w x%d\n", i%4, i%17)
		case 2:
			fmt.Fprintf(&b, "t%d rel l%d\n", i%4, i%3)
		case 3:
			fmt.Fprintf(&b, "t%d r x%d\n", i%4, i%17)
		default:
			fmt.Fprintf(&b, "t%d w x%d\n", i%4, (i+1)%17)
		}
	}
	return b.String()
}

// drain pulls every event from src (scalar view) and returns them.
func drain(t *testing.T, src EventSource) []Event {
	t.Helper()
	var out []Event
	for {
		ev, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, ev)
	}
	if err := src.Err(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	return out
}

// TestPipelinePreservesOrder checks the pipelined path yields the exact
// event sequence of the synchronous scanner, for several ring depths
// and batch sizes.
func TestPipelinePreservesOrder(t *testing.T) {
	text := pipelineText(5000)
	want := drain(t, NewScanner(strings.NewReader(text)))
	for _, depth := range []int{0, 2, 8} {
		for _, batch := range []int{0, 1, 7, 256} {
			p := NewPipeline(NewScanner(strings.NewReader(text)), depth, batch)
			got := drain(t, p)
			p.Close()
			if len(got) != len(want) {
				t.Fatalf("depth %d batch %d: %d events, want %d", depth, batch, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("depth %d batch %d, event %d: %v vs %v", depth, batch, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPipelineBatchConsumption reads a pipeline through NextBatch
// with a buffer that does not divide the pipeline's batch size, so
// copies straddle ring buffers: every batch but the last must be full,
// the events must match the synchronous scanner's, and NextBatch must
// keep reporting exhaustion after the end.
func TestPipelineBatchConsumption(t *testing.T) {
	text := pipelineText(3000)
	want := drain(t, NewScanner(strings.NewReader(text)))
	p := NewPipeline(NewScanner(strings.NewReader(text)), 3, 128)
	defer p.Close()
	buf := make([]Event, 100)
	var got []Event
	short := 0
	for {
		n, ok := p.NextBatch(buf)
		if !ok {
			break
		}
		if short > 0 {
			t.Fatalf("batch of %d events after a short batch of %d", n, short)
		}
		if n < len(buf) {
			short = n
		}
		got = append(got, buf[:n]...)
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if short != len(want)%len(buf) {
		t.Fatalf("last batch holds %d events, want %d", short, len(want)%len(buf))
	}
	if n, ok := p.NextBatch(buf); n != 0 || ok {
		t.Fatalf("NextBatch after exhaustion = %d, %v; want 0, false", n, ok)
	}
	if len(got) != len(want) {
		t.Fatalf("%d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestPipelinePropagatesError checks a decode error surfaces through
// Err after the valid prefix is delivered.
func TestPipelinePropagatesError(t *testing.T) {
	p := NewPipeline(NewScanner(strings.NewReader("t0 w x0\nt1 garbage x0\nt2 w x0\n")), 2, 4)
	defer p.Close()
	var got []Event
	for {
		ev, ok := p.Next()
		if !ok {
			break
		}
		got = append(got, ev)
	}
	if len(got) != 1 {
		t.Errorf("delivered %d events before the error, want 1", len(got))
	}
	if p.Err() == nil || !strings.Contains(p.Err().Error(), "unknown operation") {
		t.Errorf("Err = %v, want the scanner's parse error", p.Err())
	}
}

// TestPipelineEarlyClose checks Close shuts the producer down cleanly
// mid-stream (no goroutine leak, no panic) and is idempotent.
func TestPipelineEarlyClose(t *testing.T) {
	p := NewPipeline(NewScanner(strings.NewReader(pipelineText(100_000))), 2, 64)
	if _, ok := p.Next(); !ok {
		t.Fatalf("no first event: %v", p.Err())
	}
	p.Close()
	p.Close() // idempotent
}

// TestPipelineValidator checks discipline violations found in the
// decode goroutine reach the consumer.
func TestPipelineValidator(t *testing.T) {
	src := NewValidator(NewScanner(strings.NewReader("t0 acq l0\nt1 acq l0\n")))
	p := NewPipeline(src, 2, 8)
	defer p.Close()
	n := 0
	for {
		if _, ok := p.Next(); !ok {
			break
		}
		n++
	}
	if n != 1 {
		t.Errorf("delivered %d events, want 1 (the valid prefix)", n)
	}
	if p.Err() == nil || !strings.Contains(p.Err().Error(), "already held") {
		t.Errorf("Err = %v, want the lock-discipline violation", p.Err())
	}
}

// TestReplayerMatchesTrace checks the in-memory replayer's scalar and
// batch views.
func TestReplayerMatchesTrace(t *testing.T) {
	tr, err := NewScanner(strings.NewReader(pipelineText(777))).ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplayer(tr)
	got := drain(t, r)
	if len(got) != len(tr.Events) {
		t.Fatalf("replayed %d events, want %d", len(got), len(tr.Events))
	}
	r.Reset()
	buf := make([]Event, 100)
	var batched []Event
	for {
		n, ok := r.NextBatch(buf)
		batched = append(batched, buf[:n]...)
		if !ok {
			break
		}
	}
	if len(batched) != len(tr.Events) {
		t.Fatalf("batched replay has %d events, want %d", len(batched), len(tr.Events))
	}
	for i := range batched {
		if batched[i] != tr.Events[i] {
			t.Fatalf("event %d: %v vs %v", i, batched[i], tr.Events[i])
		}
	}
	if r.Meta() != tr.Meta {
		t.Errorf("Meta = %+v, want %+v", r.Meta(), tr.Meta)
	}
}

// TestBinaryNextBatchMatchesNext checks the binary scanner's batch path
// against its scalar path, including the declared-count cut-off.
func TestBinaryNextBatchMatchesNext(t *testing.T) {
	tr, err := NewScanner(strings.NewReader(pipelineText(1234))).ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	want := drain(t, NewBinaryScanner(bytes.NewReader(bin.Bytes())))
	s := NewBinaryScanner(bytes.NewReader(bin.Bytes()))
	buf := make([]Event, 97)
	var got []Event
	for {
		n, ok := s.NextBatch(buf)
		got = append(got, buf[:n]...)
		if !ok {
			break
		}
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("batched binary scan has %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d: %v vs %v", i, got[i], want[i])
		}
	}
}
