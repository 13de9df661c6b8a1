package treeclock

// The one-worker group is the decode/analysis overlap: the driver
// decodes and validates on the calling goroutine while one unsharded
// replica analyzes on a worker. It must be the inline run moved to
// another goroutine and nothing else, and RunStream must pick it on its
// own exactly for text input on a multi-core host.

import (
	"bytes"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// TestOneReplicaGroupMatchesInline pins that equivalence for every
// engine over text with StreamValidate and a 512-event checkpoint
// cadence: WithWorkers(1) and the inline run give deeply equal results
// and byte-identical checkpoints at every cadence point, and a
// checkpoint from either resumes in the other to the same result.
func TestOneReplicaGroupMatchesInline(t *testing.T) {
	tr := GenerateMixed(GenConfig{Name: "overlap", Threads: 8, Locks: 4, Vars: 64, Events: 3000, SyncFrac: 0.25, Seed: 23})
	var text bytes.Buffer
	if err := WriteTraceText(&text, tr); err != nil {
		t.Fatal(err)
	}
	run := func(engine string, workers int, sink CheckpointSink, resume []byte) (*StreamResult, error) {
		opts := []StreamOption{StreamValidate(), WithWorkers(workers), WithCheckpoint(512, sink)}
		if resume != nil {
			opts = append(opts, ResumeFrom(bytes.NewReader(resume)))
		}
		return RunStreamSource(engine, NewTraceScanner(bytes.NewReader(text.Bytes())), opts...)
	}
	for _, engine := range Engines() {
		t.Run(engine, func(t *testing.T) {
			inlineSink, groupSink := newArchiveSink(), newArchiveSink()
			inline, err := run(engine, 0, inlineSink, nil)
			if err != nil {
				t.Fatalf("inline: %v", err)
			}
			group, err := run(engine, 1, groupSink, nil)
			if err != nil {
				t.Fatalf("one worker: %v", err)
			}
			if !reflect.DeepEqual(group, inline) {
				t.Fatalf("one-worker result diverges from inline:\n got %+v\nwant %+v", group, inline)
			}

			var at []uint64
			for events := range inlineSink.all {
				at = append(at, events)
			}
			sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
			if len(at) < 4 || len(groupSink.all) != len(at) {
				t.Fatalf("checkpoints at %v inline, %d with one worker", at, len(groupSink.all))
			}
			for _, events := range at {
				if !bytes.Equal(groupSink.all[events], inlineSink.all[events]) {
					t.Fatalf("checkpoint at %d events differs between one worker and inline", events)
				}
			}

			mid := at[len(at)/2]
			for _, c := range []struct {
				from    string
				data    []byte
				workers int
			}{
				{"inline", inlineSink.all[mid], 1},
				{"one worker", groupSink.all[mid], 0},
			} {
				res, err := run(engine, c.workers, newArchiveSink(), c.data)
				if err != nil {
					t.Fatalf("resume from the %s checkpoint at %d: %v", c.from, mid, err)
				}
				if !reflect.DeepEqual(res, inline) {
					t.Fatalf("resume from the %s checkpoint at %d diverges:\n got %+v\nwant %+v", c.from, mid, res, inline)
				}
			}
		})
	}
}

// TestAutoOverlapSelection pins RunStream's choice of driver: text
// input on a host with GOMAXPROCS > 1 runs one unsharded replica
// behind the worker group, checkpointing or not; binary input, a
// single CPU and an explicit WithWorkers(n >= 1) are left alone.
func TestAutoOverlapSelection(t *testing.T) {
	ckpt := WithCheckpoint(0, &memSink{})
	cases := []struct {
		name     string
		opts     []StreamOption
		maxprocs int
		grouped  bool
		replicas int
	}{
		{"text dualcore", nil, 2, true, 1},
		{"text multicore", nil, 8, true, 1},
		{"text unicore", nil, 1, false, 1},
		{"binary dualcore", []StreamOption{StreamBinary()}, 2, false, 1},
		{"text dualcore checkpointing", []StreamOption{ckpt}, 2, true, 1},
		{"text unicore checkpointing", []StreamOption{ckpt}, 1, false, 1},
		{"text dualcore workers 0", []StreamOption{WithWorkers(0)}, 2, true, 1},
		{"text unicore one worker", []StreamOption{WithWorkers(1)}, 1, true, 1},
		{"text dualcore three workers", []StreamOption{WithWorkers(3)}, 2, true, 3},
		{"binary unicore two workers", []StreamOption{StreamBinary(), WithWorkers(2)}, 1, true, 2},
	}
	for _, tc := range cases {
		s, err := newSession("hb-tree", runStreamConfig(tc.opts, tc.maxprocs))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if s.grouped != tc.grouped || len(s.engines) != tc.replicas {
			t.Errorf("%s: grouped %v with %d replicas, want %v with %d",
				tc.name, s.grouped, len(s.engines), tc.grouped, tc.replicas)
		}
		s.Close()
	}

	// End to end on this host: a group worker is alive while a text run
	// reports progress exactly when GOMAXPROCS > 1, with or without
	// checkpointing.
	text := cancelTrace(3000)
	for _, procs := range []int{1, 2} {
		for _, checkpointing := range []bool{false, true} {
			prev := runtime.GOMAXPROCS(procs)
			worker := false
			opts := []StreamOption{WithProgress(1000, func(Progress) {
				buf := make([]byte, 1<<16)
				worker = worker || strings.Contains(string(buf[:runtime.Stack(buf, true)]), "parallel.(*Group).worker")
			})}
			if checkpointing {
				opts = append(opts, WithCheckpoint(1000, &memSink{}))
			}
			_, err := RunStream("hb-tree", bytes.NewReader(text), opts...)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			if worker != (procs > 1) {
				t.Errorf("GOMAXPROCS %d, checkpointing %v: worker goroutine running %v, want %v", procs, checkpointing, worker, procs > 1)
			}
		}
	}
}
