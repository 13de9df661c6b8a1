package treeclock

// Session lifecycle and push-mode equivalence: the session core must
// make push-fed streams byte-identical to pull-mode runs of the same
// events, enforce its mode/lifecycle state machine with the pinned
// errors, survive snapshot/resume mid-push, and never leak worker
// goroutines on abandon/close paths.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// feedChunks pushes tr's events into s in chunks of the given size —
// deliberately unaligned with trace.DefaultBatchSize, since batch
// boundaries must not influence any result.
func feedChunks(t *testing.T, s *Session, events []Event, chunk int) {
	t.Helper()
	for i := 0; i < len(events); i += chunk {
		j := i + chunk
		if j > len(events) {
			j = len(events)
		}
		if err := s.Feed(events[i:j]); err != nil {
			t.Fatalf("Feed(%d:%d): %v", i, j, err)
		}
	}
}

// sessionCorpusTrace is the trace the equivalence tests share: mixed
// sync/access load with enough conflicts for every order to report.
func sessionCorpusTrace() *Trace {
	return GenerateMixed(GenConfig{Name: "session-mixed", Threads: 6, Locks: 4, Vars: 24, Events: 2200, SyncFrac: 0.3, Seed: 11})
}

// TestSessionPushMatchesPull is the core push/pull differential: for
// every engine (plus the flat weak-clock variants) and both execution
// shapes, feeding the events in odd-sized chunks produces a result
// deeply equal to the classic pull entry point's — summary, samples,
// timestamps, metadata and MemStats alike.
func TestSessionPushMatchesPull(t *testing.T) {
	tr := sessionCorpusTrace()
	for _, v := range engineVariants() {
		for _, workers := range []int{0, 2} {
			name := fmt.Sprintf("%s/seq", v.label)
			if workers > 0 {
				name = fmt.Sprintf("%s/par%d", v.label, workers)
			}
			t.Run(name, func(t *testing.T) {
				run, open := RunStreamSource, Open
				if v.flat {
					run, open = runFlatSource, openFlat
				}
				opts := []StreamOption{WithWorkers(workers)}
				want, err := run(v.engine, NewTraceReplayer(tr), opts...)
				if err != nil {
					t.Fatalf("pull run: %v", err)
				}

				s, err := open(v.engine, opts...)
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				defer s.Close()
				feedChunks(t, s, tr.Events, 173)
				got, err := s.Result()
				if err != nil {
					t.Fatalf("Result: %v", err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("push result diverges from pull:\n got %+v\nwant %+v", got, want)
				}
				if s.Events() != uint64(len(tr.Events)) {
					t.Fatalf("Events() = %d, want %d", s.Events(), len(tr.Events))
				}
			})
		}
	}
}

// TestWithWorkersSelectsSharded pins the worker-count contract: any
// n >= 1 builds the sharded runtime with n replicas, one included, and
// n <= 0 or no option builds the sequential one.
func TestWithWorkersSelectsSharded(t *testing.T) {
	for _, tc := range []struct {
		opts     []StreamOption
		parallel bool
		replicas int
	}{
		{nil, false, 1},
		{[]StreamOption{WithWorkers(0)}, false, 1},
		{[]StreamOption{WithWorkers(-3)}, false, 1},
		{[]StreamOption{WithWorkers(1)}, true, 1},
		{[]StreamOption{WithWorkers(3)}, true, 3},
	} {
		s, err := Open("hb-tree", tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if s.parallel != tc.parallel || len(s.engines) != tc.replicas {
			t.Errorf("workers %d: sharded %v with %d replicas, want %v with %d",
				s.cfg.workers, s.parallel, len(s.engines), tc.parallel, tc.replicas)
		}
		s.Close()
	}
}

// TestSessionSnapshotResume pins the push-mode checkpoint cycle:
// snapshot mid-stream, open a fresh session from the checkpoint, ask
// Resumed for the re-feed position, ship the remainder, and require
// the final result byte-identical to an uninterrupted run — across
// four engines and both execution shapes.
func TestSessionSnapshotResume(t *testing.T) {
	tr := sessionCorpusTrace()
	n := len(tr.Events)
	for _, engine := range []string{"hb-tree", "shb-vc", "maz-vc", "wcp-tree"} {
		for _, workers := range []int{0, 2} {
			mode := "seq"
			if workers > 0 {
				mode = fmt.Sprintf("par%d", workers)
			}
			t.Run(engine+"/"+mode, func(t *testing.T) {
				var opts []StreamOption
				if workers > 0 {
					opts = append(opts, WithWorkers(workers))
				}
				want, err := RunStreamSource(engine, NewTraceReplayer(tr), opts...)
				if err != nil {
					t.Fatalf("uninterrupted run: %v", err)
				}

				// First half, then snapshot at an arbitrary (non-batch)
				// position.
				cut := n/2 + 37
				first, err := Open(engine, opts...)
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				defer first.Close()
				feedChunks(t, first, tr.Events[:cut], 211)
				var ckpt bytes.Buffer
				if err := first.Snapshot(&ckpt); err != nil {
					t.Fatalf("Snapshot: %v", err)
				}
				first.Close()

				// Resume and ship the rest.
				second, err := Open(engine, append(append([]StreamOption{}, opts...), ResumeFrom(&ckpt))...)
				if err != nil {
					t.Fatalf("Open(resume): %v", err)
				}
				defer second.Close()
				pos, err := second.Resumed()
				if err != nil {
					t.Fatalf("Resumed: %v", err)
				}
				if pos != uint64(cut) {
					t.Fatalf("Resumed() = %d, want %d", pos, cut)
				}
				feedChunks(t, second, tr.Events[pos:], 211)
				got, err := second.Result()
				if err != nil {
					t.Fatalf("Result: %v", err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("resumed push result diverges:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

// TestSessionLifecycleErrors pins the mode state machine and its
// sentinel errors.
func TestSessionLifecycleErrors(t *testing.T) {
	tr := GenerateMixed(GenConfig{Name: "session-small", Threads: 3, Locks: 2, Vars: 8, Events: 300, SyncFrac: 0.3, Seed: 3})

	t.Run("double run", func(t *testing.T) {
		s, err := Open("hb-tree")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Run(NewTraceReplayer(tr)); err != nil {
			t.Fatalf("first Run: %v", err)
		}
		if _, err := s.Run(NewTraceReplayer(tr)); !errors.Is(err, ErrSessionRan) {
			t.Fatalf("second Run err = %v, want ErrSessionRan", err)
		}
	})
	t.Run("feed after run", func(t *testing.T) {
		s, err := Open("hb-tree")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Run(NewTraceReplayer(tr)); err != nil {
			t.Fatal(err)
		}
		if err := s.Feed(tr.Events[:4]); !errors.Is(err, ErrFeedAfterRun) {
			t.Fatalf("Feed err = %v, want ErrFeedAfterRun", err)
		}
	})
	t.Run("run after feed", func(t *testing.T) {
		s, err := Open("hb-tree")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Feed(tr.Events[:4]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(NewTraceReplayer(tr)); !errors.Is(err, ErrRunAfterFeed) {
			t.Fatalf("Run err = %v, want ErrRunAfterFeed", err)
		}
	})
	t.Run("feed after close", func(t *testing.T) {
		s, err := Open("hb-tree")
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		if err := s.Feed(tr.Events[:4]); !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("Feed err = %v, want ErrSessionClosed", err)
		}
		if _, err := s.Run(NewTraceReplayer(tr)); !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("Run err = %v, want ErrSessionClosed", err)
		}
		if err := s.Snapshot(&bytes.Buffer{}); !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("Snapshot err = %v, want ErrSessionClosed", err)
		}
	})
	t.Run("feed after result", func(t *testing.T) {
		s, err := Open("hb-tree")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Feed(tr.Events); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Result(); err != nil {
			t.Fatal(err)
		}
		if err := s.Feed(tr.Events[:4]); !errors.Is(err, ErrSessionFinished) {
			t.Fatalf("Feed err = %v, want ErrSessionFinished", err)
		}
		// Result stays idempotent after sealing.
		if _, err := s.Result(); err != nil {
			t.Fatalf("second Result: %v", err)
		}
	})
	t.Run("close idempotent", func(t *testing.T) {
		s, err := Open("wcp-tree", WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Feed(tr.Events[:64]); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSessionOptionErrors pins the centralized validation: every
// cross-option conflict fails at Open with its canonical text, and the
// mode- or source-dependent checks fail on the first driving call.
func TestSessionOptionErrors(t *testing.T) {
	wantErr := func(t *testing.T, err error, frag string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), frag) {
			t.Fatalf("err = %v, want containing %q", err, frag)
		}
	}

	t.Run("unknown engine", func(t *testing.T) {
		_, err := Open("nope")
		wantErr(t, err, `unknown engine "nope"`)
	})
	t.Run("checkpoint+pipeline", func(t *testing.T) {
		_, err := Open("hb-tree", WithCheckpoint(0, &memSink{}), WithPipeline(2))
		wantErr(t, err, "WithCheckpoint/ResumeFrom and WithPipeline are mutually exclusive")
	})
	t.Run("slot reclaim on wcp", func(t *testing.T) {
		_, err := Open("wcp-tree", WithSlotReclaim())
		wantErr(t, err, "WithSlotReclaim")
	})
	t.Run("intern cap needs text pull source", func(t *testing.T) {
		s, err := Open("hb-tree", WithInternCap(16))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		tr := GenerateMixed(GenConfig{Name: "t", Threads: 2, Locks: 1, Vars: 4, Events: 50, SyncFrac: 0.2, Seed: 1})
		_, err = s.Run(NewTraceReplayer(tr))
		wantErr(t, err, "WithInternCap requires text input")
	})
	tr := GenerateMixed(GenConfig{Name: "t", Threads: 2, Locks: 1, Vars: 4, Events: 50, SyncFrac: 0.2, Seed: 1})
	pushRejects := []struct {
		name string
		opt  StreamOption
		frag string
	}{
		{"pipeline", WithPipeline(2), "WithPipeline requires a pull-mode source"},
		{"progress", WithProgress(10, func(Progress) {}), "WithProgress requires a pull-mode source"},
		{"validate", StreamValidate(), "StreamValidate requires a pull-mode source"},
		{"intern cap", WithInternCap(16), "WithInternCap requires text input"},
	}
	for _, pr := range pushRejects {
		t.Run("push rejects "+pr.name, func(t *testing.T) {
			s, err := Open("hb-tree", pr.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			wantErr(t, s.Feed(tr.Events[:8]), pr.frag)
		})
	}
}

// TestSessionConcurrent runs independent sessions concurrently — one
// per engine, push and pull mixed — and checks each against its own
// library run. Under -race this doubles as the data-race check for
// session independence.
func TestSessionConcurrent(t *testing.T) {
	tr := sessionCorpusTrace()
	engines := Engines()
	want := make([]*StreamResult, len(engines))
	for i, name := range engines {
		var err error
		want[i], err = RunStreamSource(name, NewTraceReplayer(tr))
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 2*len(engines))
	for i, name := range engines {
		wg.Add(2)
		go func(i int, name string) { // push-mode session
			defer wg.Done()
			s, err := Open(name)
			if err != nil {
				errs[2*i] = err
				return
			}
			defer s.Close()
			for lo := 0; lo < len(tr.Events); lo += 191 {
				hi := lo + 191
				if hi > len(tr.Events) {
					hi = len(tr.Events)
				}
				if err := s.Feed(tr.Events[lo:hi]); err != nil {
					errs[2*i] = err
					return
				}
			}
			got, err := s.Result()
			if err != nil {
				errs[2*i] = err
				return
			}
			if !reflect.DeepEqual(got, want[i]) {
				errs[2*i] = fmt.Errorf("%s push diverged", name)
			}
		}(i, name)
		go func(i int, name string) { // sharded pull-mode session
			defer wg.Done()
			got, err := RunStreamSource(name, NewTraceReplayer(tr), WithWorkers(2))
			if err != nil {
				errs[2*i+1] = err
				return
			}
			// Replicated retained state sums across workers, so MemStats
			// legitimately differs from the sequential run's here.
			cmp := *got
			cmp.Mem = want[i].Mem
			if !reflect.DeepEqual(&cmp, want[i]) {
				errs[2*i+1] = fmt.Errorf("%s parallel diverged", name)
			}
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestSessionGoroutineLeaks abandons sharded push sessions on every
// exit path — Close without Result (the evict shape), Result then
// Close, Snapshot then Close — and requires the goroutine count back
// at baseline.
func TestSessionGoroutineLeaks(t *testing.T) {
	tr := sessionCorpusTrace()
	paths := []struct {
		name string
		exit func(t *testing.T, s *Session)
	}{
		{"close without result", func(t *testing.T, s *Session) {}},
		{"result then close", func(t *testing.T, s *Session) {
			if _, err := s.Result(); err != nil {
				t.Fatal(err)
			}
		}},
		{"snapshot then close", func(t *testing.T, s *Session) {
			if err := s.Snapshot(&bytes.Buffer{}); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			s, err := Open("wcp-tree", WithWorkers(4))
			if err != nil {
				t.Fatal(err)
			}
			feedChunks(t, s, tr.Events[:1200], 173)
			p.exit(t, s)
			s.Close()
			checkGoroutines(t, base)
		})
	}
}

// TestSessionMem pins the budget-inspection hook: a memory-reporting
// engine exposes live retained-state accounting mid-push (quiescing
// the worker group for the read), a bounded one reports ok == false.
func TestSessionMem(t *testing.T) {
	tr := sessionCorpusTrace()
	t.Run("wcp reports", func(t *testing.T) {
		s, err := Open("wcp-tree", WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		feedChunks(t, s, tr.Events[:1500], 250)
		ms, ok := s.Mem()
		if !ok {
			t.Fatal("wcp session reported no MemStats")
		}
		if ms.RetainedBytes == 0 {
			t.Fatal("wcp session reports zero retained bytes mid-stream")
		}
		// Feeding still works after the quiesced read.
		feedChunks(t, s, tr.Events[1500:], 250)
		if _, err := s.Result(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("hb does not", func(t *testing.T) {
		s, err := Open("hb-tree")
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		feedChunks(t, s, tr.Events[:600], 250)
		if _, ok := s.Mem(); ok {
			t.Fatal("hb session unexpectedly reported MemStats")
		}
	})
}
