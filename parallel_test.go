package treeclock_test

import (
	"bytes"
	"strings"
	"sync/atomic"
	"testing"

	"treeclock"
)

// parallelWorkerCounts are the shard widths the determinism harness
// sweeps: the degenerate single worker, powers of two, and a prime
// that divides nothing so the hash partition is exercised off the easy
// cases.
var parallelWorkerCounts = []int{1, 2, 4, 7}

// TestParallelMatchesSequential is the acceptance harness of the
// sharded runtime: for every generator workload and every registry
// engine, RunStream with WithWorkers at 1, 2, 4 and 7 workers (one
// worker still runs the sharded runtime) must render a byte-identical
// race report, identical timestamps, identical event count and
// identical discovered metadata to sequential RunStream.
// In -short mode (the CI race job) the sweep trims to two shard
// widths; the full matrix runs in the regular test job.
func TestParallelMatchesSequential(t *testing.T) {
	counts := parallelWorkerCounts
	if testing.Short() {
		counts = []int{2, 7}
	}
	for _, tr := range generatorSuite() {
		var bin bytes.Buffer
		if err := treeclock.WriteTraceBinary(&bin, tr); err != nil {
			t.Fatal(err)
		}
		for _, engineName := range treeclock.Engines() {
			t.Run(tr.Meta.Name+"/"+engineName, func(t *testing.T) {
				seq, err := treeclock.RunStream(engineName, bytes.NewReader(bin.Bytes()), treeclock.StreamBinary())
				if err != nil {
					t.Fatal(err)
				}
				want := raceReport(seq.Summary, seq.Samples)
				for _, w := range counts {
					par, err := treeclock.RunStream(engineName, bytes.NewReader(bin.Bytes()),
						treeclock.StreamBinary(), treeclock.WithWorkers(w))
					if err != nil {
						t.Fatalf("workers=%d: %v", w, err)
					}
					if got := raceReport(par.Summary, par.Samples); got != want {
						t.Fatalf("workers=%d: race report diverges:\nparallel:\n%s\nsequential:\n%s", w, got, want)
					}
					if par.Events != seq.Events {
						t.Fatalf("workers=%d: %d events, sequential saw %d", w, par.Events, seq.Events)
					}
					if par.Meta != seq.Meta {
						t.Fatalf("workers=%d: meta %+v, sequential %+v", w, par.Meta, seq.Meta)
					}
					if len(par.Timestamps) != len(seq.Timestamps) {
						t.Fatalf("workers=%d: %d timestamps, sequential %d", w, len(par.Timestamps), len(seq.Timestamps))
					}
					for th := range seq.Timestamps {
						if !par.Timestamps[th].Equal(seq.Timestamps[th]) {
							t.Fatalf("workers=%d: thread %d timestamp %v, sequential %v",
								w, th, par.Timestamps[th], seq.Timestamps[th])
						}
					}
				}
			})
		}
	}
}

// TestParallelTextPath covers the text decoder under the sharded
// coordinator (the byte-identical matrix above uses binary input).
func TestParallelTextPath(t *testing.T) {
	tr := treeclock.GenerateMixed(treeclock.GenConfig{
		Name: "par-text", Threads: 8, Locks: 4, Vars: 128,
		Events: 20000, Seed: 5, SyncFrac: 0.25, HotFrac: 0.1,
	})
	var text bytes.Buffer
	if err := treeclock.WriteTraceText(&text, tr); err != nil {
		t.Fatal(err)
	}
	for _, engineName := range []string{"hb-tree", "shb-vc", "wcp-tree"} {
		seq, err := treeclock.RunStream(engineName, bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		par, err := treeclock.RunStream(engineName, bytes.NewReader(text.Bytes()), treeclock.WithWorkers(3))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := raceReport(par.Summary, par.Samples), raceReport(seq.Summary, seq.Samples); got != want {
			t.Errorf("%s: text parallel diverges:\n%s\nvs\n%s", engineName, got, want)
		}
	}
}

// TestParallelMemMerged pins the retained-state merge: each WCP
// replica retains its own copy of the per-lock state, so the parallel
// report sums the replicas (additive fields scale with workers) while
// the per-lock peak stays the sequential peak.
func TestParallelMemMerged(t *testing.T) {
	const n = 40000
	seq, err := treeclock.RunStreamSource("wcp-tree",
		treeclock.LimitEvents(treeclock.GenerateHotLockStream(4, 17), n))
	if err != nil {
		t.Fatal(err)
	}
	par, err := treeclock.RunStreamSource("wcp-tree",
		treeclock.LimitEvents(treeclock.GenerateHotLockStream(4, 17), n),
		treeclock.WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Mem == nil || par.Mem == nil {
		t.Fatalf("missing retained-state reports: seq %v, par %v", seq.Mem, par.Mem)
	}
	if par.Mem.DroppedEntries != 3*seq.Mem.DroppedEntries {
		t.Errorf("dropped entries %d, want 3x sequential %d", par.Mem.DroppedEntries, seq.Mem.DroppedEntries)
	}
	if par.Mem.PeakLockHist != seq.Mem.PeakLockHist {
		t.Errorf("peak history %d, want sequential %d (a max, not a sum)", par.Mem.PeakLockHist, seq.Mem.PeakLockHist)
	}
	// The non-mem engines still report nothing in parallel.
	res, err := treeclock.RunStreamSource("hb-tree",
		treeclock.LimitEvents(treeclock.GenerateHotLockStream(4, 17), n),
		treeclock.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem != nil {
		t.Errorf("hb-tree parallel reported retained state: %+v", res.Mem)
	}
}

// TestParallelWorkStats checks the per-replica work counters sum into
// the caller's sink: with 2 workers every clock operation happens in
// both replicas, so the total is at least the sequential total.
func TestParallelWorkStats(t *testing.T) {
	tr := treeclock.GenerateSingleLock(5, 2000, 13)
	var text bytes.Buffer
	if err := treeclock.WriteTraceText(&text, tr); err != nil {
		t.Fatal(err)
	}
	var seqStats treeclock.WorkStats
	if _, err := treeclock.RunStream("hb-vc", bytes.NewReader(text.Bytes()),
		treeclock.StreamWorkStats(&seqStats)); err != nil {
		t.Fatal(err)
	}
	var parStats treeclock.WorkStats
	if _, err := treeclock.RunStream("hb-vc", bytes.NewReader(text.Bytes()),
		treeclock.WithWorkers(2), treeclock.StreamWorkStats(&parStats)); err != nil {
		t.Fatal(err)
	}
	if parStats.Changed < seqStats.Changed || parStats.Entries < seqStats.Entries {
		t.Errorf("parallel work %+v below sequential %+v — a replica skipped clock work", parStats, seqStats)
	}
}

// TestParallelOptionConflicts pins the rejected combinations and the
// validation path: discipline violations surface as errors from the
// coordinator-side validator.
func TestParallelOptionConflicts(t *testing.T) {
	if _, err := treeclock.RunStream("hb-quantum", strings.NewReader(""), treeclock.WithWorkers(2)); err == nil {
		t.Error("unknown engine accepted")
	}
	bad := "t0 acq l0\nt1 acq l0\n"
	if _, err := treeclock.RunStream("hb-tree", strings.NewReader(bad),
		treeclock.WithWorkers(2), treeclock.StreamValidate()); err == nil {
		t.Error("double acquire accepted with StreamValidate under workers")
	}
	if _, err := treeclock.RunStream("hb-tree", strings.NewReader("t0 frobnicate x0\n"),
		treeclock.WithWorkers(2)); err == nil {
		t.Error("malformed trace accepted under workers")
	}
}

// TestParallelNoAnalysis covers the pure partial-order configuration
// under workers, and the explicit-pipeline combination (the decoder
// feeds the coordinator zero-copy).
func TestParallelNoAnalysis(t *testing.T) {
	tr := treeclock.GenerateStar(6, 5000, 11)
	var text bytes.Buffer
	if err := treeclock.WriteTraceText(&text, tr); err != nil {
		t.Fatal(err)
	}
	res, err := treeclock.RunStream("hb-tree", bytes.NewReader(text.Bytes()),
		treeclock.WithWorkers(2), treeclock.StreamNoAnalysis())
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Total != 0 || res.Samples != nil {
		t.Errorf("analysis ran despite StreamNoAnalysis: %+v", res.Summary)
	}
	if res.Events != uint64(tr.Len()) {
		t.Errorf("Events = %d, want %d", res.Events, tr.Len())
	}
	seq, err := treeclock.RunStream("shb-tree", bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	piped, err := treeclock.RunStream("shb-tree", bytes.NewReader(text.Bytes()),
		treeclock.WithWorkers(2), treeclock.WithPipeline(3))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := raceReport(piped.Summary, piped.Samples), raceReport(seq.Summary, seq.Samples); got != want {
		t.Errorf("pipeline + workers diverges:\n%s\nvs\n%s", got, want)
	}
}

// TestProgressCallbacks covers WithProgress on both entry points: the
// callback fires with monotone event counts and a sane final total.
func TestProgressCallbacks(t *testing.T) {
	tr := treeclock.GenerateMixed(treeclock.GenConfig{
		Name: "progress", Threads: 6, Locks: 3, Vars: 32,
		Events: 30000, Seed: 9, SyncFrac: 0.2,
	})
	var text bytes.Buffer
	if err := treeclock.WriteTraceText(&text, tr); err != nil {
		t.Fatal(err)
	}
	check := func(name string, run func(fn func(treeclock.Progress)) error) {
		var calls atomic.Uint64
		var last atomic.Uint64
		err := run(func(p treeclock.Progress) {
			calls.Add(1)
			if prev := last.Swap(p.Events); p.Events <= prev {
				t.Errorf("%s: progress went backwards: %d after %d", name, p.Events, prev)
			}
			if p.Rate < 0 {
				t.Errorf("%s: negative rate %f", name, p.Rate)
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if calls.Load() < 2 {
			t.Errorf("%s: only %d progress reports over %d events at every=10000", name, calls.Load(), tr.Len())
		}
		if last.Load() > uint64(tr.Len()) {
			t.Errorf("%s: progress count %d exceeds trace length %d", name, last.Load(), tr.Len())
		}
	}
	check("sequential", func(fn func(treeclock.Progress)) error {
		_, err := treeclock.RunStream("hb-tree", bytes.NewReader(text.Bytes()), treeclock.WithProgress(10000, fn))
		return err
	})
	check("parallel", func(fn func(treeclock.Progress)) error {
		_, err := treeclock.RunStream("hb-tree", bytes.NewReader(text.Bytes()),
			treeclock.WithWorkers(2), treeclock.WithProgress(10000, fn))
		return err
	})
	check("scalar", func(fn func(treeclock.Progress)) error {
		_, err := treeclock.RunStreamSource("hb-tree", nextOnly{treeclock.NewTraceScanner(bytes.NewReader(text.Bytes()))},
			treeclock.WithProgress(10000, fn))
		return err
	})
}
