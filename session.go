package treeclock

// The session core: every streaming analysis — RunStream and
// RunStreamSource, a checkpoint/resume cycle, a daemon-hosted trace that
// never ends — is one Session. Open validates the whole option set in
// one place and builds the engine replicas; the session then runs in
// exactly one of two modes, bound by the first driving call:
//
//   - Pull: Run(src) drains an event source to completion, the way the
//     classic entry points always have. The session owns the loop,
//     honoring cancellation, checkpoint cadence and progress reporting.
//   - Push: Feed(batch) hands the session pre-decoded events as they
//     arrive — from a socket, a log shipper, an in-process producer —
//     with Snapshot/Close under the caller's control. The trace has no
//     end until the caller says so; Result assembles what was seen.
//
// Both modes drive the same replicas through the same assembler, so a
// pushed stream's result is byte-identical to a pulled run of the same
// events (the differential suites pin this). Push-mode checkpoints
// record the delivered-event frontier in place of a decoder state; a
// resumed push session reports the position to re-feed from via
// Resumed.
//
// A Session is not safe for concurrent use: one goroutine feeds it.
// Distinct sessions are fully independent and may run concurrently.

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"treeclock/internal/analysis"
	"treeclock/internal/ckpt"
	"treeclock/internal/core"
	"treeclock/internal/engine"
	"treeclock/internal/parallel"
	"treeclock/internal/trace"
	"treeclock/internal/vc"
)

// Session lifecycle errors, pinned: these exact texts are part of the
// API (tests and remote-protocol error mapping match on them).
var (
	// ErrSessionClosed is returned by every operation on a closed session.
	ErrSessionClosed = errors.New("treeclock: session is closed")
	// ErrSessionRan is returned by a second Run on the same session.
	ErrSessionRan = errors.New("treeclock: session already ran (open a new session per trace)")
	// ErrFeedAfterRun is returned by Feed on a session that ran pull-mode.
	ErrFeedAfterRun = errors.New("treeclock: Feed on a pull-mode session (Run already consumed a source)")
	// ErrRunAfterFeed is returned by Run on a session that was fed push-mode.
	ErrRunAfterFeed = errors.New("treeclock: Run on a push-mode session (events were already fed)")
	// ErrSessionFinished is returned by Feed once Result has sealed the stream.
	ErrSessionFinished = errors.New("treeclock: Feed after Result (the stream is sealed)")
)

// sessionMode tracks which driving style the session is bound to.
type sessionMode uint8

const (
	sessionIdle   sessionMode = iota // no driving call yet
	sessionPull                      // Run consumed (or is consuming) a source
	sessionPush                      // Feed/Snapshot/Resumed drive it
	sessionClosed                    // Close ran
)

// Session is one streaming analysis in progress: the engine replicas,
// their configuration, and the driving state. Construct with Open,
// drive with Run (pull) or Feed/Snapshot (push), finish with Result
// (push) and Close. RunStream and RunStreamSource are wrappers over
// exactly this type.
type Session struct {
	info     EngineInfo
	cfg      streamConfig
	mode     sessionMode
	finished bool // Result sealed a push stream

	// engines holds one replica for the sequential path, cfg.workers
	// replicas for the sharded one; sinks are the per-replica WorkStats
	// accumulators the sharded path folds into cfg.stats at assembly.
	engines  []streamEngine
	sinks    []WorkStats
	parallel bool

	// Push-mode state, bound on the first Feed/Snapshot/Resumed call.
	group    *parallel.Group
	feed     *feedSource
	scratch  bytes.Buffer
	nextCkpt uint64

	// Pull-mode bookkeeping.
	scanner trace.InternCapable // capped interner, for result accounting

	err    error // sticky push-mode failure
	result *StreamResult
}

// Open validates the engine name and the complete option set and
// builds a session ready to run. All cross-option conflicts fail here,
// with the same pinned texts regardless of which entry point or mode
// the session is later driven by; checks that depend on the input
// source (WithInternCap's text requirement) fail on the first driving
// call instead. The returned session must be Closed.
func Open(engineName string, opts ...StreamOption) (*Session, error) {
	return newSession(engineName, newConfig(opts))
}

// newSession is the single construction and validation path behind
// Open and the RunStream entry points.
func newSession(engineName string, cfg streamConfig) (*Session, error) {
	info, ok := engineRegistry[engineName]
	if !ok {
		return nil, fmt.Errorf("treeclock: unknown engine %q (have %v)", engineName, Engines())
	}
	if (cfg.ckptSink != nil || cfg.resume != nil) && cfg.pipeline > 0 {
		return nil, fmt.Errorf("treeclock: WithCheckpoint/ResumeFrom and WithPipeline are mutually exclusive (the pipelined decoder is not checkpointable)")
	}
	s := &Session{info: info, cfg: cfg, parallel: cfg.workers >= 1}
	if err := s.buildEngines(); err != nil {
		return nil, err
	}
	if cfg.ckptSink != nil || cfg.resume != nil {
		if !s.engines[0].Checkpointable() {
			return nil, fmt.Errorf("treeclock: engine %q does not support checkpointing", engineName)
		}
	}
	return s, nil
}

// buildEngines constructs the replica set: one engine for the
// sequential path; for the sharded path, cfg.workers full replicas,
// each owning one variable shard and counting work into its own
// WorkStats sink (a shared sink would race across workers).
func (s *Session) buildEngines() error {
	cfg := &s.cfg
	if !s.parallel {
		e, err := buildEngine(s.info, cfg, cfg.stats, nil)
		if err != nil {
			return err
		}
		s.engines = []streamEngine{e}
		return nil
	}
	n := cfg.workers
	s.engines = make([]streamEngine, n)
	if cfg.stats != nil {
		s.sinks = make([]WorkStats, n)
	}
	for w := 0; w < n; w++ {
		var sink *WorkStats
		if cfg.stats != nil {
			sink = &s.sinks[w]
		}
		owns := parallel.Owns(w, n)
		if !cfg.analysis {
			// Without analysis there is nothing to shard; the replicas
			// would all do identical work. Keep the contract (the path
			// still runs) but let every worker skip the gating closure.
			owns = nil
		}
		e, err := buildEngine(s.info, cfg, sink, owns)
		if err != nil {
			return err
		}
		s.engines[w] = e
	}
	return nil
}

// buildEngine instantiates one replica over the registry entry's clock
// type.
func buildEngine(info EngineInfo, cfg *streamConfig, sink *WorkStats, owns func(int32) bool) (streamEngine, error) {
	if info.Clock == "tree" {
		return newStreamEngine[*core.TreeClock](info.Order, core.Factory(sink), cfg, owns)
	}
	return newStreamEngine[*vc.VectorClock](info.Order, vc.Factory(sink), cfg, owns)
}

// Run drains src through the session to completion — the pull mode
// RunStream and RunStreamSource wrap. It binds the session: a second
// Run fails with ErrSessionRan, and Feed fails with ErrFeedAfterRun.
// On a driver error (cancellation, decode failure, a checkpoint sink
// failure) the partial StreamResult is returned alongside the error,
// internally consistent for exactly the events processed.
func (s *Session) Run(src EventSource) (*StreamResult, error) {
	switch s.mode {
	case sessionClosed:
		return nil, ErrSessionClosed
	case sessionPull:
		return nil, ErrSessionRan
	case sessionPush:
		return nil, ErrRunAfterFeed
	}
	s.mode = sessionPull
	// Interner eviction lives in the text tokenizer; the cap is applied
	// to the unwrapped scanner before any input is consumed, and the
	// scanner is remembered so the result can report the interner's
	// retained-state accounting.
	if s.cfg.internCap > 0 {
		sc, ok := src.(trace.InternCapable)
		if !ok {
			return nil, fmt.Errorf("treeclock: WithInternCap requires text input (source %T has no interned names)", src)
		}
		s.scanner = sc
		s.scanner.SetInternCap(s.cfg.internCap)
	}
	if s.parallel {
		return s.runSharded(src)
	}
	return s.runSequential(src)
}

// runSequential is the single-replica pull driver.
func (s *Session) runSequential(src trace.EventSource) (*StreamResult, error) {
	cfg := &s.cfg
	if cfg.validate {
		src = trace.NewValidator(src)
	}
	if cfg.pipeline > 0 {
		// The pipeline wraps the (validated) decoder, so tokenizing and
		// discipline checks both run in the decode goroutine.
		p := trace.NewPipeline(src, cfg.pipeline, trace.DefaultBatchSize)
		defer p.Close()
		src = p
	}
	if cfg.progressFn != nil {
		src = wrapProgress(src, cfg)
	}
	e := s.engines[0]
	if cfg.ckptSink != nil || cfg.resume != nil {
		cs, err := asCheckpointable(src)
		if err != nil {
			return nil, err
		}
		if cfg.resume != nil {
			if _, err := restoreCheckpoint(cfg, s.info.Name, 1, cs, s.engines); err != nil {
				return nil, err
			}
		}
	}
	err := driveSequential(e, src, cfg, s.info.Name)
	res := s.assembleResult()
	if err != nil {
		// The result still carries the consistent partial state (events
		// processed, retained-state accounting) for callers that want it
		// — a cancelled run's progress, a crashed run's accounting.
		return res, err
	}
	return res, nil
}

// runSharded is the multi-replica pull driver: the coordinator
// sequences batches into every worker's ring in trace order, and the
// merged result is byte-identical to the sequential run's. See
// internal/parallel for the transport design.
func (s *Session) runSharded(src trace.EventSource) (*StreamResult, error) {
	cfg := &s.cfg
	n := len(s.engines)
	if cfg.validate {
		// Validation is sequential by nature (lock discipline follows
		// trace order) and runs on the coordinator side, exactly once.
		src = trace.NewValidator(src)
	}
	if cfg.pipeline > 0 {
		p := trace.NewPipeline(src, cfg.pipeline, trace.DefaultBatchSize)
		defer p.Close()
		src = p
	}
	if cfg.progressFn != nil {
		src = wrapProgress(src, cfg)
	}

	// Checkpoint/resume: every replica's state goes into (and comes
	// back from) the checkpoint, in worker order, and the coordinator
	// takes snapshots at barriers where all workers stand at the same
	// trace position.
	var (
		startAt uint64
		cs      trace.CheckpointableSource
	)
	if cfg.ckptSink != nil || cfg.resume != nil {
		var err error
		cs, err = asCheckpointable(src)
		if err != nil {
			return nil, err
		}
		if cfg.resume != nil {
			if startAt, err = restoreCheckpoint(cfg, s.info.Name, n, cs, s.engines); err != nil {
				return nil, err
			}
		}
	}
	replicas := make([]parallel.Replica, n)
	for w, e := range s.engines {
		replicas[w] = e
	}
	popts := parallel.Options{Ctx: cfg.ctx, StartAt: startAt}
	if cfg.ckptSink != nil {
		popts.CheckpointEvery = cfg.ckptEvery
		popts.Checkpoint = func(events uint64) error {
			return emitCheckpoint(cfg, &s.scratch, s.info.Name, n, events, cs, s.engines)
		}
	}

	events, err := parallel.Run(src, replicas, popts)
	if err == nil {
		for w, e := range s.engines {
			if e.Events() != events {
				return nil, fmt.Errorf("treeclock: internal error: worker %d processed %d of %d events", w, e.Events(), events)
			}
		}
	}
	res := s.assembleResult()
	if err != nil {
		// The workers have drained every batch dispatched before the
		// failure (cancellation, a mid-stream decode error, a checkpoint
		// write error), so the partial result is internally consistent:
		// counts, merged MemStats and metadata all describe exactly the
		// events delivered.
		return res, err
	}
	return res, nil
}

// bindPush transitions an idle session into push mode: reject the
// options that only make sense around a source decoder, create the
// feed frontier, restore a resumed session's state, and start the
// worker group for sharded sessions.
func (s *Session) bindPush() error {
	switch s.mode {
	case sessionClosed:
		return ErrSessionClosed
	case sessionPull:
		return ErrFeedAfterRun
	case sessionPush:
		return nil
	}
	cfg := &s.cfg
	switch {
	case cfg.pipeline > 0:
		return fmt.Errorf("treeclock: WithPipeline requires a pull-mode source (push sessions feed decoded events)")
	case cfg.progressFn != nil:
		return fmt.Errorf("treeclock: WithProgress requires a pull-mode source (count fed batches at the caller)")
	case cfg.validate:
		return fmt.Errorf("treeclock: StreamValidate requires a pull-mode source (validate before feeding)")
	case cfg.internCap > 0:
		return fmt.Errorf("treeclock: WithInternCap requires text input (push sessions feed decoded events)")
	}
	s.feed = &feedSource{}
	var startAt uint64
	if cfg.resume != nil {
		events, err := restoreCheckpoint(cfg, s.info.Name, len(s.engines), s.feed, s.engines)
		if err != nil {
			return err
		}
		startAt = events
	}
	if s.parallel {
		replicas := make([]parallel.Replica, len(s.engines))
		for w, e := range s.engines {
			replicas[w] = e
		}
		s.group = parallel.NewGroup(replicas, parallel.Options{StartAt: startAt})
	}
	if cfg.ckptSink != nil {
		s.nextCkpt = nextBoundary(startAt, cfg.ckptEvery)
	}
	s.mode = sessionPush
	return nil
}

// Resumed binds the session to push mode and reports the trace
// position to continue feeding from: the event count of the restored
// checkpoint under ResumeFrom, zero for a fresh session. Push-mode
// checkpoints record only the delivered-event frontier (the events
// arrive pre-decoded, so there is no decoder state to restore) — the
// feeder re-ships events from the reported position.
func (s *Session) Resumed() (uint64, error) {
	if err := s.bindPush(); err != nil {
		return 0, err
	}
	return s.feed.delivered, nil
}

// Feed pushes a batch of pre-decoded events into the session, binding
// it to push mode on first use. Events are analyzed in feed order;
// batch boundaries are irrelevant to the result. After a failure (a
// cancelled context, a checkpoint sink error) the session is stuck:
// every further Feed returns the same error, and Result returns the
// partial state alongside it. The caller must not mutate events during
// the call; ownership stays with the caller afterwards.
func (s *Session) Feed(events []Event) error {
	if err := s.bindPush(); err != nil {
		return err
	}
	if s.err != nil {
		return s.err
	}
	if s.finished {
		return ErrSessionFinished
	}
	if s.cfg.ctx != nil {
		select {
		case <-s.cfg.ctx.Done():
			s.err = s.cfg.ctx.Err()
			return s.err
		default:
		}
	}
	if s.group != nil {
		s.group.Feed(events)
	} else if len(events) > 0 {
		e := s.engines[0]
		e.ProcessBatchAt(e.Events(), events)
	}
	s.feed.delivered += uint64(len(events))
	if s.cfg.ckptSink != nil && s.feed.delivered >= s.nextCkpt {
		if err := s.checkpoint(); err != nil {
			s.err = err
			return err
		}
		s.nextCkpt = nextBoundary(s.feed.delivered, s.cfg.ckptEvery)
	}
	return nil
}

// checkpoint emits one cadence checkpoint through the configured sink,
// quiescing the worker group first so every replica stands at the
// delivered frontier.
func (s *Session) checkpoint() error {
	emit := func(events uint64) error {
		return emitCheckpoint(&s.cfg, &s.scratch, s.info.Name, len(s.engines), events, s.feed, s.engines)
	}
	if s.group != nil {
		return s.group.Barrier(emit)
	}
	return emit(s.feed.delivered)
}

// Snapshot writes a complete checkpoint of the session to w — the
// push-mode counterpart of the WithCheckpoint cadence, under the
// caller's control: before evicting an idle session, before shutdown,
// on a client's detach. The worker group is quiesced for the write, so
// the checkpoint covers exactly the events fed so far; a session
// resumed from it (Open with ResumeFrom, then Resumed for the
// re-feed position) continues byte-identically. Snapshot binds an idle
// session to push mode.
func (s *Session) Snapshot(w io.Writer) error {
	if err := s.bindPush(); err != nil {
		return err
	}
	if s.err != nil {
		return s.err
	}
	write := func(events uint64) error {
		return writeCheckpoint(w, s.info.Name, &s.cfg, len(s.engines), events, s.feed, s.engines)
	}
	if s.group != nil {
		return s.group.Barrier(write)
	}
	return write(s.feed.delivered)
}

// Events returns the number of trace events the session has accepted
// so far (including any restored by ResumeFrom). Zero for an idle
// or freshly resumed-at-zero session.
func (s *Session) Events() uint64 {
	if s.feed != nil {
		return s.feed.delivered
	}
	if len(s.engines) > 0 && s.mode == sessionPull {
		return s.engines[0].Events()
	}
	return 0
}

// Mem reports the session's current retained-state accounting, merged
// across replicas, when the engine implements the memory-reporting
// extension (currently the "wcp-*" orders); ok is false otherwise.
// On a sharded push session the worker group is quiesced for the read.
// This is the budget-inspection hook a multi-tenant host throttles and
// evicts on.
func (s *Session) Mem() (ms MemStats, ok bool) {
	read := func(uint64) error {
		var mems []engine.MemStats
		for _, e := range s.engines {
			if m, k := e.Mem(); k {
				mems = append(mems, m)
			}
		}
		if len(mems) > 0 {
			ms, ok = engine.MergeMemStats(mems), true
		}
		return nil
	}
	if s.group != nil && s.mode == sessionPush && !s.finished {
		s.group.Barrier(read)
		return ms, ok
	}
	read(0)
	return ms, ok
}

// Result seals a push-mode stream and assembles its outcome: the
// worker group drains and stops, and the returned StreamResult is
// byte-identical to what a pull-mode run of the same events would have
// produced. Further Feeds fail with ErrSessionFinished; Result is
// idempotent and also returns the (already assembled) result of a
// completed pull session. If the session previously failed, the
// partial result is returned alongside the sticky error.
func (s *Session) Result() (*StreamResult, error) {
	switch s.mode {
	case sessionClosed:
		if s.result != nil {
			return s.result, s.err
		}
		return nil, ErrSessionClosed
	case sessionIdle:
		if err := s.bindPush(); err != nil {
			return nil, err
		}
	}
	if s.mode == sessionPush && !s.finished {
		s.finished = true
		if s.group != nil {
			s.group.Close()
			s.group = nil
		}
	}
	return s.assembleResult(), s.err
}

// Close releases the session: the worker group (if any) drains and
// stops, and every subsequent operation fails with ErrSessionClosed.
// Closing never writes a final checkpoint — call Snapshot first to
// keep a resumable frontier. Close is idempotent and never fails;
// its error result exists for io.Closer shape.
func (s *Session) Close() error {
	if s.mode == sessionClosed {
		return nil
	}
	if s.group != nil {
		s.group.Close()
		s.group = nil
	}
	s.mode = sessionClosed
	return nil
}

// assembleResult builds the StreamResult from the replica set — the
// one merge path shared by the sequential, sharded, pull and push
// drivers (and, through Session, the daemon). Idempotent: the first
// call folds the per-replica WorkStats sinks and interner accounting
// into the caller-visible sinks; later calls return the cached result.
func (s *Session) assembleResult() *StreamResult {
	if s.result != nil {
		return s.result
	}
	// Replica clock evolution is identical everywhere, so replica 0
	// speaks for timestamps, metadata and the event count; the sharded
	// analysis state merges across all replicas.
	sum, samples, ts := s.engines[0].Finish()
	if s.parallel && s.cfg.analysis {
		accs := make([]*analysis.Accumulator, len(s.engines))
		for w, e := range s.engines {
			accs[w] = e.Acc()
		}
		sum, samples = analysis.MergeAccumulators(accs)
	}
	res := &StreamResult{
		Engine:     s.info.Name,
		Meta:       s.engines[0].Meta(),
		Events:     s.engines[0].Events(),
		Summary:    sum,
		Samples:    samples,
		Timestamps: ts,
	}
	var mems []engine.MemStats
	for _, e := range s.engines {
		if ms, ok := e.Mem(); ok {
			mems = append(mems, ms)
		}
	}
	if len(mems) > 0 {
		ms := engine.MergeMemStats(mems)
		res.Mem = &ms
	}
	if s.cfg.stats != nil {
		for i := range s.sinks {
			s.cfg.stats.Add(s.sinks[i])
		}
	}
	foldInternStats(res, s.scanner)
	s.result = res
	return res
}

// feedSource is the CheckpointableSource of a push-mode session: the
// events arrive pre-decoded from the caller, so the only decode
// frontier worth recording is the count of events delivered — a
// resumed feeder re-ships from there. It never produces events itself
// (the session's Feed path bypasses the source abstraction entirely).
type feedSource struct {
	delivered uint64 // events accepted so far (absolute trace position)
}

func (f *feedSource) Next() (trace.Event, bool) { return trace.Event{}, false }
func (f *feedSource) Err() error                { return nil }

// SnapshotSource implements trace.CheckpointableSource: the delivered
// frontier is the entire source state.
func (f *feedSource) SnapshotSource(e *ckpt.Enc) error {
	e.Begin("feed")
	e.U64(f.delivered)
	e.End()
	return e.Err()
}

// RestoreSource implements trace.CheckpointableSource: a push-mode
// checkpoint restores only into a push-mode session (a pull session's
// checkpoint carries decoder sections instead and fails here).
func (f *feedSource) RestoreSource(d *ckpt.Dec) error {
	d.Begin("feed")
	f.delivered = d.U64()
	d.End()
	return d.Err()
}
