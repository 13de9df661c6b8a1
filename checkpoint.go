package treeclock

// Checkpoint/resume for streaming analysis
//
// A checkpoint captures everything a resumed run needs to continue as
// if the interruption never happened: the run configuration (engine,
// analysis/validation switches, shard count, event count, caps),
// the decode frontier of the trace source (byte offset, interner
// tables), and the full engine state of every replica (clocks,
// detector/accumulator, plugin state). The format is the versioned,
// length-prefixed, CRC-checked section stream of internal/ckpt:
//
//	header | "config" | source sections | engine sections × shards | "end"
//
// Engine sections are written by engine.Runtime.Snapshot (one "engine"
// and one "analysis" section plus the semantics plugin's own). A
// truncated, bit-flipped or misdirected checkpoint fails restore with
// an error wrapping ErrCorruptCheckpoint; it never panics and never
// leaves a half-restored run behind (restore errors discard the run).
//
// Checkpoints are written at batch boundaries, so the event count in a
// checkpoint is always a prefix of the trace that every state machine
// (engine, validator, interner) has fully processed. Sinks receive
// only complete checkpoint byte streams: the bytes are assembled in
// memory first, so a crash while writing can at worst leave a torn
// file, which FileCheckpointSink avoids with a temp-file rename.
//
// The config section keeps a flat weak-clock byte so that format v2
// and its committed golden stay unchanged and existing checkpoints
// keep resuming. It is always written false; a checkpoint with it set
// fails restore with ErrFlatWeakCheckpoint.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"treeclock/internal/ckpt"
	"treeclock/internal/trace"
)

// ErrCorruptCheckpoint is the sentinel every checkpoint decode failure
// wraps: truncation, CRC mismatch, unexpected sections, out-of-range
// values. Distinguish "the checkpoint is bad" from plain I/O trouble
// with errors.Is(err, ErrCorruptCheckpoint).
var ErrCorruptCheckpoint = ckpt.ErrCorrupt

// ErrFlatWeakCheckpoint is returned when restoring a checkpoint written
// with the retired flat weak-clock transport: its engine state has no
// sparse-transport reading, so the run must start over.
var ErrFlatWeakCheckpoint = errors.New("treeclock: checkpoint was written with the retired flat weak-clock transport; restart the run without it")

// CheckpointSink receives completed checkpoints. Create is called once
// per checkpoint with the event count it covers; the returned writer
// receives the complete checkpoint bytes and is then closed. Close
// commits the checkpoint — a sink that replaces a previous checkpoint
// must do so atomically only in Close (see FileCheckpointSink).
type CheckpointSink interface {
	Create(events uint64) (io.WriteCloser, error)
}

// FileCheckpointSink writes each checkpoint to Path, replacing the
// previous one atomically: the bytes go to a temporary file in the
// same directory, synced and renamed over Path on Close, and the
// directory is synced after the rename, so a crash never leaves a torn
// checkpoint behind or loses a committed one. A failed commit removes
// the temporary file and keeps the previous checkpoint.
type FileCheckpointSink struct {
	// Path is the checkpoint file location.
	Path string
}

// Create implements CheckpointSink.
func (s FileCheckpointSink) Create(events uint64) (io.WriteCloser, error) {
	dir := filepath.Dir(s.Path)
	f, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return nil, err
	}
	return &atomicFile{f: f, path: s.Path}, nil
}

// atomicFile commits a temp file to its final path on Close: sync,
// rename, then sync the directory so the new name survives a crash.
type atomicFile struct {
	f    *os.File
	path string
	done bool
}

func (a *atomicFile) Write(p []byte) (int, error) { return a.f.Write(p) }

func (a *atomicFile) Close() error {
	if a.done {
		return nil
	}
	a.done = true
	if err := a.f.Sync(); err != nil {
		a.f.Close()
		os.Remove(a.f.Name())
		return err
	}
	if err := a.f.Close(); err != nil {
		os.Remove(a.f.Name())
		return err
	}
	if err := os.Rename(a.f.Name(), a.path); err != nil {
		os.Remove(a.f.Name())
		return err
	}
	return syncDir(filepath.Dir(a.path))
}

// syncDir flushes a directory's entries to stable storage.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WithCheckpoint makes the run write a checkpoint to sink roughly
// every `every` events (at batch granularity: at the first batch
// boundary past each multiple; every == 0 selects one checkpoint per
// million events). A run interrupted afterwards — by a crash, a kill,
// or a cancelled context — can continue from the last completed
// checkpoint with ResumeFrom, and its results are byte-identical to an
// uninterrupted run's.
//
// Checkpointing is incompatible with WithPipeline (the asynchronous
// decoder's in-flight state cannot be serialized); the automatic
// pipeline selection stays synchronous when checkpointing is on.
func WithCheckpoint(every uint64, sink CheckpointSink) StreamOption {
	return func(c *streamConfig) {
		if every == 0 {
			every = 1 << 20
		}
		c.ckptEvery, c.ckptSink = every, sink
	}
}

// ResumeFrom restores the run from a checkpoint read from r before any
// trace input is consumed: the trace reader is fast-forwarded to the
// checkpoint's byte offset and the engine continues from the restored
// state. The run configuration — engine name, analysis and validation
// switches, worker count, caps — must match the
// checkpointed run's, and the trace reader must serve the same input;
// mismatches fail with a descriptive error. A corrupt or truncated
// checkpoint fails with an error wrapping ErrCorruptCheckpoint; the
// trace is never touched in that case.
func ResumeFrom(r io.Reader) StreamOption {
	return func(c *streamConfig) { c.resume = r }
}

// WithContext cancels the run when ctx does: the streaming loop stops
// at the next batch boundary, sharded workers and the pipelined
// decoder drain and exit (no goroutine leaks), and the run returns the
// partial StreamResult alongside ctx.Err(). The partial result covers
// exactly the events processed before cancellation.
func WithContext(ctx context.Context) StreamOption {
	return func(c *streamConfig) { c.ctx = ctx }
}

// asCheckpointable requires src (the fully wrapped source chain) to
// support checkpointing.
func asCheckpointable(src trace.EventSource) (trace.CheckpointableSource, error) {
	cs, ok := src.(trace.CheckpointableSource)
	if !ok {
		return nil, fmt.Errorf("treeclock: source %T does not support checkpointing", src)
	}
	return cs, nil
}

// writeCheckpoint assembles one complete checkpoint into w.
func writeCheckpoint(w io.Writer, name string, cfg *streamConfig, shards int, events uint64, src trace.CheckpointableSource, engines []streamEngine) error {
	e := ckpt.NewEnc(w)
	e.Header()
	e.Begin("config")
	e.String(name)
	e.Bool(false) // flat weak-clock slot, kept so format v2 is unchanged
	e.Bool(cfg.analysis)
	e.Bool(cfg.validate)
	e.Int(shards)
	e.U64(events)
	e.Bool(cfg.slotReclaim)
	e.Int(cfg.summaryCap)
	e.Int(cfg.internCap)
	e.End()
	if err := e.Err(); err != nil {
		return err
	}
	if err := src.SnapshotSource(e); err != nil {
		return err
	}
	for _, eng := range engines {
		if err := eng.Snapshot(w); err != nil {
			return err
		}
	}
	e.Begin("end")
	e.End()
	return e.Err()
}

// emitCheckpoint writes one checkpoint through the configured sink.
// The bytes are assembled in scratch first so the sink only ever sees
// a complete checkpoint.
func emitCheckpoint(cfg *streamConfig, scratch *bytes.Buffer, name string, shards int, events uint64, src trace.CheckpointableSource, engines []streamEngine) error {
	scratch.Reset()
	if err := writeCheckpoint(scratch, name, cfg, shards, events, src, engines); err != nil {
		return fmt.Errorf("treeclock: writing checkpoint at %d events: %w", events, err)
	}
	wc, err := cfg.ckptSink.Create(events)
	if err != nil {
		return fmt.Errorf("treeclock: creating checkpoint at %d events: %w", events, err)
	}
	if _, err := wc.Write(scratch.Bytes()); err != nil {
		wc.Close()
		return fmt.Errorf("treeclock: writing checkpoint at %d events: %w", events, err)
	}
	if err := wc.Close(); err != nil {
		return fmt.Errorf("treeclock: committing checkpoint at %d events: %w", events, err)
	}
	return nil
}

// restoreCheckpoint consumes a whole checkpoint from cfg.resume,
// validating the configuration, fast-forwarding the source and loading
// every engine replica. On error the run must be discarded.
func restoreCheckpoint(cfg *streamConfig, name string, shards int, src trace.CheckpointableSource, engines []streamEngine) (events uint64, err error) {
	d := ckpt.NewDec(cfg.resume)
	d.Header()
	d.Begin("config")
	ckName := d.String()
	ckFlat := d.Bool()
	ckAnalysis := d.Bool()
	ckValidate := d.Bool()
	ckShards := d.Int()
	events = d.U64()
	ckReclaim := d.Bool()
	ckSumCap := d.Int()
	ckInternCap := d.Int()
	d.End()
	if err := d.Err(); err != nil {
		return 0, err
	}
	if ckFlat {
		return 0, ErrFlatWeakCheckpoint
	}
	if ckName != name || ckAnalysis != cfg.analysis || ckValidate != cfg.validate || ckShards != shards {
		return 0, fmt.Errorf("treeclock: checkpoint was written by engine %q (analysis %v, validate %v, %d workers); this run is %q (analysis %v, validate %v, %d workers)",
			ckName, ckAnalysis, ckValidate, ckShards,
			name, cfg.analysis, cfg.validate, shards)
	}
	if ckReclaim != cfg.slotReclaim || ckSumCap != cfg.summaryCap || ckInternCap != cfg.internCap {
		return 0, fmt.Errorf("treeclock: checkpoint was written with slot-reclaim %v, summary cap %d, intern cap %d; this run has slot-reclaim %v, summary cap %d, intern cap %d",
			ckReclaim, ckSumCap, ckInternCap, cfg.slotReclaim, cfg.summaryCap, cfg.internCap)
	}
	if err := src.RestoreSource(d); err != nil {
		return 0, err
	}
	// Observer wrappers (progress reporting) contribute no checkpoint
	// state; re-seed their counters from the restored position so
	// callbacks continue the interrupted run's numbering.
	if ps, ok := src.(interface{ StartAt(uint64) }); ok {
		ps.StartAt(events)
	}
	for _, eng := range engines {
		if err := eng.Restore(cfg.resume); err != nil {
			return 0, err
		}
	}
	d.Begin("end")
	d.End()
	if err := d.Err(); err != nil {
		return 0, err
	}
	for i, eng := range engines {
		if eng.Events() != events {
			return 0, fmt.Errorf("treeclock: checkpoint replica %d restored at %d events but the checkpoint covers %d: %w",
				i, eng.Events(), events, ckpt.ErrCorrupt)
		}
	}
	return events, nil
}
