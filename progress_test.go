package treeclock

// WithProgress fires from the session's per-batch step, in both modes:
// at the first batch boundary past each multiple of `every`, counting
// delivered events, and numbered from the restored position on a
// resumed run.

import (
	"bytes"
	"slices"
	"testing"
)

// progressTrace builds a small access-only trace of n events.
func progressTrace(n int) *Trace {
	tr := &Trace{Meta: Meta{Name: "progress", Threads: 2, Vars: 4}}
	for i := 0; i < n; i++ {
		tr.Events = append(tr.Events, Event{T: 0, Obj: int32(i % 4), Kind: Read})
	}
	return tr
}

// progressEvents collects the event counts of a run's reports.
func progressEvents(t *testing.T, every uint64, reports *[]uint64) StreamOption {
	return WithProgress(every, func(p Progress) {
		*reports = append(*reports, p.Events)
		if p.Rate < 0 {
			t.Errorf("negative rate %f", p.Rate)
		}
	})
}

// TestProgressCadence pins the report cadence: one report at the first
// batch boundary past each multiple of every, pulled in the driver's
// 512-event batches or pushed in the caller's, inline or behind a
// worker.
func TestProgressCadence(t *testing.T) {
	tr := progressTrace(2500)
	for _, tc := range []struct {
		name  string
		push  int // Feed chunk size; 0 pulls
		opts  []StreamOption
		every uint64
		want  []uint64
	}{
		{"pull", 0, nil, 1000, []uint64{1024, 2048}},
		{"pull one worker", 0, []StreamOption{WithWorkers(1)}, 1000, []uint64{1024, 2048}},
		{"push", 128, nil, 1000, []uint64{1024, 2048}},
		{"push per event", 1, nil, 500, []uint64{500, 1000, 1500, 2000, 2500}},
		{"push one worker", 100, []StreamOption{WithWorkers(1)}, 300, []uint64{300, 600, 900, 1200, 1500, 1800, 2100, 2400}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var reports []uint64
			s, err := Open("hb-tree", append(tc.opts, progressEvents(t, tc.every, &reports))...)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var res *StreamResult
			if tc.push == 0 {
				res, err = s.Run(NewTraceReplayer(tr))
			} else {
				feedChunks(t, s, tr.Events, tc.push)
				res, err = s.Result()
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Events != uint64(tr.Len()) {
				t.Fatalf("consumed %d events, want %d", res.Events, tr.Len())
			}
			if !slices.Equal(reports, tc.want) {
				t.Fatalf("reports at %v, want %v", reports, tc.want)
			}
		})
	}
}

// TestProgressResumeNumbering pins that a resumed run numbers its
// reports from the restored position, pulled or pushed: the first
// report lands at the first multiple of every past the checkpoint, not
// `every` events after the resume.
func TestProgressResumeNumbering(t *testing.T) {
	tr := progressTrace(5000)
	var text bytes.Buffer
	if err := WriteTraceText(&text, tr); err != nil {
		t.Fatal(err)
	}

	t.Run("pull", func(t *testing.T) {
		sink := newArchiveSink()
		if _, err := RunStreamSource("hb-tree", NewTraceScanner(bytes.NewReader(text.Bytes())), WithCheckpoint(1500, sink)); err != nil {
			t.Fatal(err)
		}
		ckpt, ok := sink.all[1536]
		if !ok {
			t.Fatalf("no checkpoint at 1536 events (have %d)", len(sink.all))
		}
		var reports []uint64
		res, err := RunStreamSource("hb-tree", NewTraceScanner(bytes.NewReader(text.Bytes())),
			ResumeFrom(bytes.NewReader(ckpt)), progressEvents(t, 1000, &reports))
		if err != nil {
			t.Fatal(err)
		}
		if res.Events != uint64(tr.Len()) {
			t.Fatalf("resumed run ended at %d events, want %d", res.Events, tr.Len())
		}
		if want := []uint64{2048, 3072, 4096, 5000}; !slices.Equal(reports, want) {
			t.Fatalf("reports at %v, want %v", reports, want)
		}
	})

	t.Run("push", func(t *testing.T) {
		first, err := Open("hb-tree")
		if err != nil {
			t.Fatal(err)
		}
		defer first.Close()
		feedChunks(t, first, tr.Events[:2100], 300)
		var ckpt bytes.Buffer
		if err := first.Snapshot(&ckpt); err != nil {
			t.Fatal(err)
		}
		var reports []uint64
		s, err := Open("hb-tree", ResumeFrom(&ckpt), progressEvents(t, 1000, &reports))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		pos, err := s.Resumed()
		if err != nil || pos != 2100 {
			t.Fatalf("Resumed = %d, %v; want 2100", pos, err)
		}
		feedChunks(t, s, tr.Events[pos:], 100)
		if want := []uint64{3000, 4000, 5000}; !slices.Equal(reports, want) {
			t.Fatalf("reports at %v, want %v", reports, want)
		}
	})
}
