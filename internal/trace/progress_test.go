package trace

import "testing"

// progressTrace builds a small access-only trace.
func progressTrace(n int) *Trace {
	tr := &Trace{Meta: Meta{Name: "progress", Threads: 2, Vars: 4}}
	for i := 0; i < n; i++ {
		tr.Events = append(tr.Events, Event{T: 0, Obj: int32(i % 4), Kind: Read})
	}
	return tr
}

// TestProgressSourceBatch pins callback cadence and final count on the
// batch path, and that wrapping changes no events.
func TestProgressSourceBatch(t *testing.T) {
	const n = 2500
	var reports []uint64
	src := NewProgressSource(NewReplayer(progressTrace(n)), 1000, func(ev uint64, rate float64) {
		reports = append(reports, ev)
		if rate < 0 {
			t.Errorf("negative rate %f", rate)
		}
	})
	bs, ok := src.(BatchSource)
	if !ok {
		t.Fatal("progress wrapper dropped the batch capability")
	}
	buf := make([]Event, 128)
	total := 0
	for {
		c, ok := bs.NextBatch(buf)
		total += c
		if !ok {
			break
		}
	}
	if total != n {
		t.Fatalf("consumed %d events, want %d", total, n)
	}
	if len(reports) != 2 {
		t.Fatalf("got %d reports (%v), want 2 (at ~1000 and ~2000)", len(reports), reports)
	}
	for i, r := range reports {
		if r < uint64(i+1)*1000 || r >= uint64(i+1)*1000+128 {
			t.Errorf("report %d fired at %d events, want within a batch of %d", i, r, (i+1)*1000)
		}
	}
}

// TestProgressSourceScalar pins the per-event path.
func TestProgressSourceScalar(t *testing.T) {
	var reports int
	src := NewProgressSource(NewReplayer(progressTrace(50)), 10, func(uint64, float64) { reports++ })
	n := 0
	for {
		_, ok := src.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 50 || reports != 5 {
		t.Fatalf("consumed %d events with %d reports, want 50 and 5", n, reports)
	}
}

// TestProgressProducer counts progress over the pipelined decoder,
// whose producer goroutine fills the batches the wrapper counts.
func TestProgressProducer(t *testing.T) {
	p := NewPipeline(NewReplayer(progressTrace(1000)), 2, 100)
	defer p.Close()
	var reports int
	src := NewProgressSource(p, 300, func(uint64, float64) { reports++ })
	buf := make([]Event, 64)
	total := 0
	for {
		n, ok := ReadBatch(src, buf)
		total += n
		if !ok {
			break
		}
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if total != 1000 {
		t.Fatalf("consumed %d events, want 1000", total)
	}
	if reports != 3 {
		t.Fatalf("%d reports, want 3 (at 300/600/900)", reports)
	}
}
