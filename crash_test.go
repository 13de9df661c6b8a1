package treeclock

// Fault-injected crash-equivalence harness: kill the analysis at every
// batch boundary, resume from the last completed checkpoint, and
// require the finished run to be byte-identical — reports, timestamps,
// metadata, retained-state accounting — to one that never crashed.
// CrashSource makes the kill deterministic, and a checkpoint cadence of
// one means a checkpoint completes at every batch boundary, so "the
// last checkpoint" always covers exactly the killed run's event count.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"treeclock/internal/gen"
	"treeclock/internal/trace"
)

// memSink retains the most recent complete checkpoint in memory; a
// non-nil all additionally archives every checkpoint by event count.
type memSink struct {
	last   []byte
	events uint64
	all    map[uint64][]byte
}

func newArchiveSink() *memSink { return &memSink{all: map[uint64][]byte{}} }

func (s *memSink) Create(events uint64) (io.WriteCloser, error) {
	return &memCkpt{sink: s, events: events}, nil
}

type memCkpt struct {
	bytes.Buffer
	sink   *memSink
	events uint64
}

func (c *memCkpt) Close() error {
	data := append([]byte(nil), c.Bytes()...)
	c.sink.last, c.sink.events = data, c.events
	if c.sink.all != nil {
		c.sink.all[c.events] = data
	}
	return nil
}

// TestFileCheckpointSinkFailedCommit pins FileCheckpointSink's commit:
// a rename that fails (Path is a non-empty directory) returns the error
// and removes the temporary file, and a good commit leaves exactly the
// checkpoint behind.
func TestFileCheckpointSinkFailedCommit(t *testing.T) {
	dir := t.TempDir()
	commit := func(path string) error {
		w, err := FileCheckpointSink{Path: path}.Create(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write([]byte("checkpoint")); err != nil {
			t.Fatal(err)
		}
		return w.Close()
	}
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := commit(blocked); err == nil {
		t.Fatal("commit over a non-empty directory succeeded")
	}
	good := filepath.Join(dir, "good")
	if err := commit(good); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(good); err != nil || string(data) != "checkpoint" {
		t.Fatalf("committed checkpoint = %q, %v", data, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "blocked" && e.Name() != "good" {
			t.Errorf("commit left %q behind", e.Name())
		}
	}
}

// TestFileCheckpointSinkFailedWrite pins that a failed write never
// replaces the previous checkpoint: the temp file is reopened
// read-only so Write fails, and Close must then fail too, leave Path
// holding the previous bytes and remove the temp file.
func TestFileCheckpointSinkFailedWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "session.ckpt")
	if err := os.WriteFile(path, []byte("previous"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		t.Fatal(err)
	}
	tmp.Close()
	ro, err := os.Open(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	w := &atomicFile{f: ro, path: path}
	if _, err := w.Write([]byte("checkpoint")); err == nil {
		t.Fatal("Write to a read-only temp file succeeded")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close after a failed Write committed")
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "previous" {
		t.Fatalf("checkpoint after a failed write = %q, %v; want the previous bytes", data, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "session.ckpt" {
			t.Errorf("failed write left %q behind", e.Name())
		}
	}
}

// crashTrace is one corpus entry, serialized once per format.
type crashTrace struct {
	name string
	text []byte
	n    int
}

// crashCorpus covers the event kinds and state shapes the checkpoint
// must carry: mixed sync/access load, fork/join trees, and the
// lock-protected pairs only the predictive (WCP) engines report.
func crashCorpus(t testing.TB) []crashTrace {
	t.Helper()
	traces := []*Trace{
		GenerateMixed(GenConfig{Name: "crash-mixed", Threads: 6, Locks: 4, Vars: 24, Events: 1800, SyncFrac: 0.3, Seed: 7}),
		GenerateForkJoinTree(6, 90, 3),
		GeneratePredictivePairs(8, 1700, 5),
	}
	out := make([]crashTrace, len(traces))
	for i, tr := range traces {
		var b bytes.Buffer
		if err := WriteTraceText(&b, tr); err != nil {
			t.Fatal(err)
		}
		out[i] = crashTrace{name: tr.Meta.Name, text: b.Bytes(), n: len(tr.Events)}
	}
	return out
}

// runMode is sequential vs sharded execution of the same analysis.
type runMode struct {
	name string
	run  func(engine string, src EventSource, opts ...StreamOption) (*StreamResult, error)
}

var crashModes = []runMode{
	{"seq", RunStreamSource},
	{"par2", func(engine string, src EventSource, opts ...StreamOption) (*StreamResult, error) {
		return RunStreamSource(engine, src, append(opts, WithWorkers(2))...)
	}},
}

// flatCrashModes are crashModes on the flat weak-clock transport (see
// openFlat).
var flatCrashModes = []runMode{
	{"seq", runFlatSource},
	{"par2", func(engine string, src EventSource, opts ...StreamOption) (*StreamResult, error) {
		return runFlatSource(engine, src, append(opts, WithWorkers(2))...)
	}},
}

// engVariant is one engine configuration of the matrices: a registry
// engine, or (flat) a "wcp-*" engine on the flat weak-clock transport.
type engVariant struct {
	label  string
	engine string
	flat   bool
}

// engineVariants lists every registry engine plus the flat weak-clock
// transport variants of the predictive engines.
func engineVariants() []engVariant {
	var vs []engVariant
	for _, name := range Engines() {
		vs = append(vs, engVariant{label: name, engine: name})
	}
	return append(vs,
		engVariant{label: "wcp-tree-flat", engine: "wcp-tree", flat: true},
		engVariant{label: "wcp-vc-flat", engine: "wcp-vc", flat: true},
	)
}

// modes returns the variant's sequential and sharded runs.
func (v engVariant) modes() []runMode {
	if v.flat {
		return flatCrashModes
	}
	return crashModes
}

// killPoints enumerates the batch boundaries of an n-event trace, plus
// the extremes (1 and n-1; CrashSource truncates the batch that hits
// the kill point, so any point becomes a batch boundary). Short mode
// keeps three representative points per configuration.
func killPoints(n int, short bool) []uint64 {
	batch := uint64(trace.DefaultBatchSize)
	var ks []uint64
	for k := batch; k < uint64(n); k += batch {
		ks = append(ks, k)
	}
	ks = append(ks, 1, uint64(n)-1)
	if short && len(ks) > 3 {
		ks = []uint64{ks[0], ks[len(ks)/2], uint64(n) - 1}
	}
	return ks
}

// crashAndResume kills a run at k events under checkpointing, checks
// the partial result, and returns the finished result of a resume from
// the last checkpoint.
func crashAndResume(t *testing.T, mode runMode, engine string, base []StreamOption, newSrc func() EventSource, k uint64) *StreamResult {
	t.Helper()
	sink := &memSink{}
	src := trace.NewCrashSource(newSrc(), k)
	res, err := mode.run(engine, src, append(append([]StreamOption{}, base...), WithCheckpoint(1, sink))...)
	if !errors.Is(err, trace.ErrInjectedCrash) {
		t.Fatalf("kill at %d: err = %v, want injected crash", k, err)
	}
	if res == nil {
		t.Fatalf("kill at %d: no partial result", k)
	}
	if res.Events != k {
		t.Fatalf("kill at %d: partial result covers %d events", k, res.Events)
	}
	if sink.events != k {
		t.Fatalf("kill at %d: last checkpoint covers %d events", k, sink.events)
	}
	got, err := mode.run(engine, newSrc(), append(append([]StreamOption{}, base...), ResumeFrom(bytes.NewReader(sink.last)))...)
	if err != nil {
		t.Fatalf("kill at %d: resume: %v", k, err)
	}
	return got
}

// TestCrashResume is the crash-equivalence matrix: every engine (and
// weak-clock transport), sequential and sharded, killed at every batch
// boundary of each corpus trace, must resume to a result deeply equal
// to the uninterrupted run's.
func TestCrashResume(t *testing.T) {
	corpus := crashCorpus(t)
	for _, ev := range engineVariants() {
		for _, mode := range ev.modes() {
			for _, ct := range corpus {
				ev, mode, ct := ev, mode, ct
				t.Run(fmt.Sprintf("%s/%s/%s", ev.label, mode.name, ct.name), func(t *testing.T) {
					base := []StreamOption{StreamValidate()}
					newSrc := func() EventSource { return trace.NewScanner(bytes.NewReader(ct.text)) }
					ref, err := mode.run(ev.engine, newSrc(), base...)
					if err != nil {
						t.Fatal(err)
					}
					for _, k := range killPoints(ct.n, testing.Short()) {
						got := crashAndResume(t, mode, ev.engine, base, newSrc, k)
						if !reflect.DeepEqual(got, ref) {
							t.Errorf("kill at %d: resumed result differs from uninterrupted run\nresumed:   %+v\nreference: %+v", k, got, ref)
						}
					}
				})
			}
		}
	}
}

// TestCrashResumeBinary repeats the crash-equivalence check over the
// binary trace format, whose scanner checkpoints a different decode
// frontier (header bookkeeping instead of interner tables).
func TestCrashResumeBinary(t *testing.T) {
	tr := GenerateMixed(GenConfig{Name: "crash-bin", Threads: 5, Locks: 3, Vars: 20, Events: 1500, SyncFrac: 0.25, Seed: 11})
	var b bytes.Buffer
	if err := WriteTraceBinary(&b, tr); err != nil {
		t.Fatal(err)
	}
	data := b.Bytes()
	for _, engine := range []string{"hb-tree", "wcp-tree"} {
		for _, mode := range crashModes {
			engine, mode := engine, mode
			t.Run(engine+"/"+mode.name, func(t *testing.T) {
				base := []StreamOption{StreamValidate()}
				newSrc := func() EventSource { return trace.NewBinaryScanner(bytes.NewReader(data)) }
				ref, err := mode.run(engine, newSrc(), base...)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range killPoints(len(tr.Events), testing.Short()) {
					got := crashAndResume(t, mode, engine, base, newSrc, k)
					if !reflect.DeepEqual(got, ref) {
						t.Errorf("kill at %d: resumed result differs from uninterrupted run", k)
					}
				}
			})
		}
	}
}

// TestCheckpointBytesCrashInvariant pins two byte-level properties:
// checkpoints written under fault injection are identical to the
// uninterrupted run's at the same event count (CrashSource leaves no
// trace in the format), and a resumed run's subsequent checkpoints
// continue the uninterrupted run's sequence byte for byte — the
// restored state is indistinguishable from one that never crashed.
func TestCheckpointBytesCrashInvariant(t *testing.T) {
	tr := GenerateMixed(GenConfig{Name: "crash-bytes", Threads: 6, Locks: 4, Vars: 24, Events: 1800, SyncFrac: 0.3, Seed: 7})
	var b bytes.Buffer
	if err := WriteTraceText(&b, tr); err != nil {
		t.Fatal(err)
	}
	text := b.Bytes()
	newSrc := func() EventSource { return trace.NewScanner(bytes.NewReader(text)) }
	const engine = "wcp-tree"
	for _, mode := range crashModes {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			full := newArchiveSink()
			if _, err := mode.run(engine, newSrc(), StreamValidate(), WithCheckpoint(1, full)); err != nil {
				t.Fatal(err)
			}
			// Kill on a real batch boundary so the resumed run's batch
			// grid — and with it the checkpoint cadence — lines up with
			// the uninterrupted run's.
			k := uint64(2 * trace.DefaultBatchSize)
			sink := &memSink{}
			src := trace.NewCrashSource(newSrc(), k)
			if _, err := mode.run(engine, src, StreamValidate(), WithCheckpoint(1, sink)); !errors.Is(err, trace.ErrInjectedCrash) {
				t.Fatalf("err = %v, want injected crash", err)
			}
			want, ok := full.all[k]
			if !ok {
				t.Fatalf("uninterrupted run wrote no checkpoint at %d (have %d checkpoints)", k, len(full.all))
			}
			if !bytes.Equal(sink.last, want) {
				t.Errorf("checkpoint at %d under fault injection differs from uninterrupted run's", k)
			}
			resumed := newArchiveSink()
			if _, err := mode.run(engine, newSrc(), StreamValidate(), ResumeFrom(bytes.NewReader(sink.last)), WithCheckpoint(1, resumed)); err != nil {
				t.Fatalf("resume: %v", err)
			}
			if len(resumed.all) == 0 {
				t.Fatal("resumed run wrote no checkpoints")
			}
			for events, data := range resumed.all {
				want, ok := full.all[events]
				if !ok {
					t.Errorf("resumed run checkpointed at %d, uninterrupted run did not", events)
					continue
				}
				if !bytes.Equal(data, want) {
					t.Errorf("resumed run's checkpoint at %d differs from uninterrupted run's", events)
				}
			}
		})
	}
}

// materializeText drains src into a text-format trace for the crash
// corpus.
func materializeText(t testing.TB, src trace.EventSource, name string) []byte {
	t.Helper()
	var evs []trace.Event
	for {
		ev, ok := src.Next()
		if !ok {
			break
		}
		evs = append(evs, ev)
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{Meta: trace.Meta{Name: name}, Events: evs}
	var b bytes.Buffer
	if err := trace.WriteText(&b, tr); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestCrashResumeChurn extends the crash-equivalence matrix to the
// residual-state caps: runs killed right after slot retirements,
// summary-aging sweeps and interner evictions must resume from the
// last checkpoint to a result deeply equal to the uninterrupted run's
// — the caps' bookkeeping (free lists, sweep thresholds, recency
// ticks) is part of the checkpointed state, not ephemeral.
func TestCrashResumeChurn(t *testing.T) {
	forkText := materializeText(t, gen.Take(gen.ForkChurn(6, 99), 4000), "churn-fork")
	varsText := materializeText(t, gen.Take(gen.ChurningVars(6, 64, 8, 41), 4000), "churn-vars")
	nameText, err := io.ReadAll(gen.NameChurnText(4, 6, 1000, 23))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		engine string
		opts   []StreamOption
		text   []byte
	}{
		{"hb-tree-reclaim", "hb-tree", []StreamOption{WithSlotReclaim()}, forkText},
		{"hb-vc-reclaim", "hb-vc", []StreamOption{WithSlotReclaim()}, forkText},
		{"shb-tree-reclaim", "shb-tree", []StreamOption{WithSlotReclaim()}, forkText},
		{"wcp-tree-sumcap", "wcp-tree", []StreamOption{WithSummaryCap(16)}, varsText},
		{"hb-tree-interncap", "hb-tree", []StreamOption{WithInternCap(48)}, nameText},
	}
	for _, tc := range cases {
		for _, mode := range crashModes {
			tc, mode := tc, mode
			t.Run(tc.name+"/"+mode.name, func(t *testing.T) {
				n := bytes.Count(tc.text, []byte("\n"))
				base := append([]StreamOption{StreamValidate()}, tc.opts...)
				newSrc := func() EventSource { return trace.NewScanner(bytes.NewReader(tc.text)) }
				ref, err := mode.run(tc.engine, newSrc(), base...)
				if err != nil {
					t.Fatal(err)
				}
				// The corpus must actually churn, or the kill points prove
				// nothing about the caps' checkpointed bookkeeping.
				if ref.Mem == nil || ref.Mem.RetiredSlots+ref.Mem.SummaryEvictions+ref.Mem.InternEvictions == 0 {
					t.Fatalf("reference run saw no churn activity: %+v", ref.Mem)
				}
				for _, k := range killPoints(n, testing.Short()) {
					got := crashAndResume(t, mode, tc.engine, base, newSrc, k)
					if !reflect.DeepEqual(got, ref) {
						t.Errorf("kill at %d: resumed result differs from uninterrupted run\nresumed:   %+v\nreference: %+v", k, got, ref)
					}
				}
			})
		}
	}
}

// TestCheckpointBytesChurnInvariant repeats the byte-level invariant
// under slot reclamation: a resumed churn run's subsequent checkpoints
// must continue the uninterrupted run's sequence byte for byte (free
// lists, remap tables and retirement counters restore exactly).
func TestCheckpointBytesChurnInvariant(t *testing.T) {
	text := materializeText(t, gen.Take(gen.ForkChurn(5, 77), 3000), "churn-bytes")
	newSrc := func() EventSource { return trace.NewScanner(bytes.NewReader(text)) }
	base := []StreamOption{StreamValidate(), WithSlotReclaim()}
	full := newArchiveSink()
	if _, err := RunStreamSource("hb-tree", newSrc(), append(base, WithCheckpoint(1, full))...); err != nil {
		t.Fatal(err)
	}
	k := uint64(2 * trace.DefaultBatchSize)
	sink := &memSink{}
	src := trace.NewCrashSource(newSrc(), k)
	if _, err := RunStreamSource("hb-tree", src, append(base, WithCheckpoint(1, sink))...); !errors.Is(err, trace.ErrInjectedCrash) {
		t.Fatalf("err = %v, want injected crash", err)
	}
	if want := full.all[k]; !bytes.Equal(sink.last, want) {
		t.Errorf("checkpoint at %d under fault injection differs from uninterrupted run's", k)
	}
	resumed := newArchiveSink()
	if _, err := RunStreamSource("hb-tree", newSrc(), append(base, ResumeFrom(bytes.NewReader(sink.last)), WithCheckpoint(1, resumed))...); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if len(resumed.all) == 0 {
		t.Fatal("resumed run wrote no checkpoints")
	}
	for events, data := range resumed.all {
		want, ok := full.all[events]
		if !ok {
			t.Errorf("resumed run checkpointed at %d, uninterrupted run did not", events)
			continue
		}
		if !bytes.Equal(data, want) {
			t.Errorf("resumed run's checkpoint at %d differs from uninterrupted run's", events)
		}
	}
}

// pristineCheckpoint runs a checkpointed analysis over text and returns
// the checkpoint covering the whole trace.
func pristineCheckpoint(t testing.TB, engine string, text []byte) []byte {
	t.Helper()
	sink := &memSink{}
	if _, err := RunStreamSource(engine, trace.NewScanner(bytes.NewReader(text)), StreamValidate(), WithCheckpoint(1, sink)); err != nil {
		t.Fatal(err)
	}
	return sink.last
}

// TestCorruptCheckpointRejected truncates and bit-flips a real
// checkpoint at scale: every mutation must fail restore with an error
// wrapping ErrCorruptCheckpoint — never a panic, never a silent
// half-restored run.
func TestCorruptCheckpointRejected(t *testing.T) {
	tr := GenerateMixed(GenConfig{Name: "crash-corrupt", Threads: 5, Locks: 3, Vars: 16, Events: 1200, SyncFrac: 0.3, Seed: 3})
	var b bytes.Buffer
	if err := WriteTraceText(&b, tr); err != nil {
		t.Fatal(err)
	}
	text := b.Bytes()
	data := pristineCheckpoint(t, "wcp-tree", text)

	resume := func(ckpt []byte) error {
		_, err := RunStreamSource("wcp-tree", trace.NewScanner(bytes.NewReader(text)), StreamValidate(), ResumeFrom(bytes.NewReader(ckpt)))
		return err
	}
	if err := resume(data); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}

	step := 1
	if len(data) > 512 {
		step = len(data) / 256 // cover ~256 positions of large checkpoints
	}
	for n := 0; n < len(data); n += step {
		err := resume(data[:n])
		if err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(data))
		}
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("truncation to %d: error %v does not wrap ErrCorruptCheckpoint", n, err)
		}
	}
	for i := 0; i < len(data); i += step {
		mut := append([]byte(nil), data...)
		mut[i] ^= 1 << uint(i%8)
		err := resume(mut)
		if err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
		if !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("bit flip at byte %d: error %v does not wrap ErrCorruptCheckpoint", i, err)
		}
	}
}

// TestResumeConfigMismatch pins that a checkpoint restored under a
// different configuration fails with a descriptive plain error (a
// usage mistake), not a corruption error.
func TestResumeConfigMismatch(t *testing.T) {
	tr := GenerateMixed(GenConfig{Name: "crash-mismatch", Threads: 4, Locks: 2, Vars: 12, Events: 900, Seed: 9})
	var b bytes.Buffer
	if err := WriteTraceText(&b, tr); err != nil {
		t.Fatal(err)
	}
	text := b.Bytes()
	data := pristineCheckpoint(t, "hb-tree", text)
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"engine", func() error {
			_, err := RunStreamSource("shb-tree", trace.NewScanner(bytes.NewReader(text)), StreamValidate(), ResumeFrom(bytes.NewReader(data)))
			return err
		}},
		{"validate", func() error {
			_, err := RunStreamSource("hb-tree", trace.NewScanner(bytes.NewReader(text)), ResumeFrom(bytes.NewReader(data)))
			return err
		}},
		{"workers", func() error {
			_, err := RunStreamSource("hb-tree", trace.NewScanner(bytes.NewReader(text)), StreamValidate(), WithWorkers(2), ResumeFrom(bytes.NewReader(data)))
			return err
		}},
	} {
		err := tc.run()
		if err == nil {
			t.Fatalf("%s mismatch accepted", tc.name)
		}
		if errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("%s mismatch misreported as corruption: %v", tc.name, err)
		}
	}
}

// FuzzResumeCheckpoint feeds arbitrary bytes to ResumeFrom: restore
// must never panic, and any input it accepts must leave the run
// producing a well-formed result.
func FuzzResumeCheckpoint(f *testing.F) {
	tr := GenerateMixed(GenConfig{Name: "crash-fuzz", Threads: 4, Locks: 2, Vars: 12, Events: 600, Seed: 13})
	var b bytes.Buffer
	if err := WriteTraceText(&b, tr); err != nil {
		f.Fatal(err)
	}
	text := b.Bytes()
	pristine := pristineCheckpoint(f, "hb-tree", text)
	f.Add(pristine)
	f.Add(pristine[:len(pristine)/2])
	f.Add([]byte{})
	f.Add([]byte("TCKP\x01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := RunStreamSource("hb-tree", trace.NewScanner(bytes.NewReader(text)), StreamValidate(), ResumeFrom(bytes.NewReader(data)))
		if err == nil && res.Events != uint64(len(tr.Events)) {
			t.Fatalf("accepted checkpoint left a short run: %d of %d events", res.Events, len(tr.Events))
		}
	})
}

// nullSink discards checkpoints (the serialization still runs).
type nullSink struct{}

type nullWC struct{}

func (nullWC) Write(p []byte) (int, error) { return len(p), nil }
func (nullWC) Close() error                { return nil }

func (nullSink) Create(uint64) (io.WriteCloser, error) { return nullWC{}, nil }

// BenchmarkCheckpointOverhead measures the cost WithCheckpoint adds to
// mixed ingestion at the default-scale cadence of one checkpoint per
// 100k events (the acceptance threshold is <5%).
func BenchmarkCheckpointOverhead(b *testing.B) {
	tr := GenerateMixed(GenConfig{Name: "ckpt-bench", Threads: 8, Locks: 6, Vars: 64, Events: 400_000, SyncFrac: 0.3, Seed: 21})
	var buf bytes.Buffer
	if err := WriteTraceText(&buf, tr); err != nil {
		b.Fatal(err)
	}
	text := buf.Bytes()
	run := func(b *testing.B, opts ...StreamOption) {
		b.SetBytes(int64(len(tr.Events)))
		for i := 0; i < b.N; i++ {
			if _, err := RunStreamSource("hb-tree", trace.NewScanner(bytes.NewReader(text)), opts...); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("baseline", func(b *testing.B) { run(b) })
	b.Run("every100k", func(b *testing.B) { run(b, WithCheckpoint(100_000, nullSink{})) })
}
