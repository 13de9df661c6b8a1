package trace

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// kindsText builds a modest trace exercising every event kind.
func kindsText(events int) string {
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

// drainBatches collects every event of src through NextBatch with
// buffers of size n.
func drainBatches(src BatchSource, n int) []Event {
	buf := make([]Event, n)
	var out []Event
	for {
		k, ok := src.NextBatch(buf)
		out = append(out, buf[:k]...)
		if !ok {
			return out
		}
	}
}

// TestReplayerMatchesTrace checks the in-memory replayer's scalar and
// batch views.
func TestReplayerMatchesTrace(t *testing.T) {
	tr, err := NewScanner(strings.NewReader(kindsText(777))).ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplayer(tr)
	got, err := drainSource(r)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, tr.Events) {
		t.Fatalf("scalar replay has %d events, want the trace's %d", len(got), len(tr.Events))
	}
	r.Reset()
	if batched := drainBatches(r, 100); !slices.Equal(batched, tr.Events) {
		t.Fatalf("batched replay has %d events, want the trace's %d", len(batched), len(tr.Events))
	}
	if r.Meta() != tr.Meta {
		t.Errorf("Meta = %+v, want %+v", r.Meta(), tr.Meta)
	}
}

// TestBinaryNextBatchMatchesNext checks the binary scanner's batch path
// against its scalar path, including the declared-count cut-off.
func TestBinaryNextBatchMatchesNext(t *testing.T) {
	tr, err := NewScanner(strings.NewReader(kindsText(1234))).ScanAll()
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	want, err := drainSource(NewBinaryScanner(bytes.NewReader(bin.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	s := NewBinaryScanner(bytes.NewReader(bin.Bytes()))
	got := drainBatches(s, 97)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("batched binary scan has %d events, scalar %d (or they differ)", len(got), len(want))
	}
}
