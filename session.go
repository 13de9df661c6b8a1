package treeclock

// The session core: every streaming analysis — RunStream and
// RunStreamSource, a checkpoint/resume cycle, a daemon-hosted trace that
// never ends — is one Session. Open validates the whole option set in
// one place and builds the engine replicas; the session then runs in
// exactly one of two modes, bound by the first driving call:
//
//   - Pull: Run(src) drains an event source to completion, the way the
//     classic entry points always have, reading it in 512-event
//     batches through one reused buffer.
//   - Push: Feed(batch) hands the session pre-decoded events as they
//     arrive — from a socket, a log shipper, an in-process producer —
//     with Snapshot/Close under the caller's control. The trace has no
//     end until the caller says so; Result assembles what was seen.
//
// Both modes share one lifecycle: start restores a resumed session,
// starts the worker group (WithWorkers) and arms the checkpoint and
// progress cadences; feed is the one per-batch step — hand the batch
// to the replica or the worker group, advance the delivered count,
// take the cadence checkpoint, report progress — that Run calls once
// per decoded batch and Feed once per pushed one; stop drains the
// worker group. Cancellation is checked before every batch, by one
// helper. A pushed stream's result is therefore byte-identical to a
// pulled run of the same events (the differential suites pin this).
// Pull-mode checkpoints record the wrapped decoder's state; push-mode
// checkpoints record the delivered-event frontier in its place, and a
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
	"time"

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

	// engines holds the replicas: one inline or behind a one-worker
	// group, cfg.workers sharded ones for two or more workers; sinks
	// are the per-replica WorkStats accumulators a worker group folds
	// into cfg.stats at assembly (the workers cannot share one).
	engines []streamEngine
	sinks   []WorkStats
	grouped bool // the replicas run behind a worker group

	// Driving state, bound by start. frontier counts the events
	// delivered so far (the absolute trace position of the next one)
	// and is the push-mode checkpoint source; ckptSrc is the cadence
	// checkpoint's source: the wrapped decoder in pull mode, &frontier
	// in push mode.
	group    *parallel.Group
	frontier feedSource
	ckptSrc  trace.CheckpointableSource
	scratch  bytes.Buffer
	nextCkpt uint64

	// Progress cadence: the next report threshold, and the count and
	// time of the previous report (the rate baseline).
	nextProgress uint64
	lastProgress uint64
	lastReport   time.Time

	// Pull-mode bookkeeping.
	scanner trace.InternCapable // capped interner, for result accounting

	err    error // sticky driving failure
	result *StreamResult
}

// maxWorkers bounds WithWorkers. Each replica replays the whole
// stream, so replicas beyond the core count add only memory; the bound
// stops a mistyped or hostile count (a daemon open frame carries one)
// before any replica is built.
const maxWorkers = 256

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
	if cfg.workers > maxWorkers {
		return nil, fmt.Errorf("treeclock: WithWorkers(%d) exceeds the limit of %d workers", cfg.workers, maxWorkers)
	}
	s := &Session{info: info, cfg: cfg, grouped: cfg.workers >= 1}
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

// buildEngines constructs the replica set: one engine inline; behind
// a worker group, cfg.workers full replicas, each counting work into
// its own WorkStats sink (a shared sink would race across workers) and,
// with two or more, owning one variable shard.
func (s *Session) buildEngines() error {
	cfg := &s.cfg
	if !s.grouped {
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
		// One replica owns every variable. Without analysis there is
		// nothing to shard; the replicas all do identical work.
		var owns func(int32) bool
		if n > 1 && cfg.analysis {
			owns = parallel.Owns(w, n)
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
// internally consistent for exactly the events processed. The error
// is sticky: Result returns it too.
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
	cfg := &s.cfg
	// Interner eviction lives in the text tokenizer; the cap is applied
	// to the unwrapped scanner before any input is consumed, and the
	// scanner is remembered so the result can report the interner's
	// retained-state accounting.
	if cfg.internCap > 0 {
		sc, ok := src.(trace.InternCapable)
		if !ok {
			s.err = fmt.Errorf("treeclock: WithInternCap requires text input (source %T has no interned names)", src)
			return nil, s.err
		}
		s.scanner = sc
		s.scanner.SetInternCap(cfg.internCap)
	}
	if cfg.validate {
		// Validation is sequential by nature (lock discipline follows
		// trace order) and runs on the driving goroutine, exactly once,
		// however many replicas consume the stream.
		src = trace.NewValidator(src)
	}
	var cs trace.CheckpointableSource
	if cfg.ckptSink != nil || cfg.resume != nil {
		var err error
		if cs, err = asCheckpointable(src); err != nil {
			s.err = err
			return nil, err
		}
	}
	if err := s.start(cs); err != nil {
		s.err = err
		return nil, err
	}
	buf := make([]trace.Event, trace.DefaultBatchSize)
	for !s.cancelled() {
		n, ok := trace.ReadBatch(src, buf)
		if s.feed(buf[:n]) != nil {
			break
		}
		if !ok {
			s.err = src.Err()
			break
		}
	}
	s.stop()
	// After a failure the replicas have processed every batch fed
	// before it, so the partial result is internally consistent:
	// counts, merged MemStats and metadata all describe exactly the
	// events delivered.
	return s.assembleResult(), s.err
}

// start binds the driving state for either mode: it restores a
// resumed session from its checkpoint through src, starts the worker
// group at the restored position, and arms the checkpoint and progress
// cadences there. src is the checkpoint source: the wrapped decoder in
// pull mode, the feed frontier in push mode.
func (s *Session) start(src trace.CheckpointableSource) error {
	cfg := &s.cfg
	if cfg.resume != nil {
		events, err := restoreCheckpoint(cfg, s.info.Name, len(s.engines), src, s.engines)
		if err != nil {
			return err
		}
		s.frontier.delivered = events
	}
	if s.grouped {
		replicas := make([]parallel.Replica, len(s.engines))
		for w, e := range s.engines {
			replicas[w] = e
		}
		s.group = parallel.NewGroup(replicas, s.frontier.delivered)
	}
	if cfg.ckptSink != nil {
		s.ckptSrc = src
		s.nextCkpt = nextBoundary(s.frontier.delivered, cfg.ckptEvery)
	}
	if cfg.progressFn != nil {
		s.nextProgress = nextBoundary(s.frontier.delivered, cfg.progressEvery)
		s.lastProgress, s.lastReport = s.frontier.delivered, time.Now()
	}
	return nil
}

// cancelled reports whether the session's context is done, recording
// its error as the sticky failure if so. Run checks it before reading
// each batch and Feed before taking one.
func (s *Session) cancelled() bool {
	if s.cfg.ctx == nil {
		return false
	}
	select {
	case <-s.cfg.ctx.Done():
		s.err = s.cfg.ctx.Err()
		return true
	default:
		return false
	}
}

// feed is the per-batch step of both modes: hand the batch to the
// replica (on this goroutine) or to the worker group, advance the
// delivered count, then take the cadence checkpoint and report
// progress when their boundaries have been crossed. A checkpoint
// failure becomes the sticky error.
func (s *Session) feed(events []trace.Event) error {
	if s.group != nil {
		s.group.Feed(events)
	} else if len(events) > 0 {
		s.engines[0].ProcessBatchAt(s.frontier.delivered, events)
	}
	s.frontier.delivered += uint64(len(events))
	if s.cfg.ckptSink != nil && s.frontier.delivered >= s.nextCkpt {
		if err := s.checkpoint(); err != nil {
			s.err = err
			return err
		}
		s.nextCkpt = nextBoundary(s.frontier.delivered, s.cfg.ckptEvery)
	}
	if s.cfg.progressFn != nil && s.frontier.delivered >= s.nextProgress {
		s.reportProgress()
	}
	return nil
}

// reportProgress fires the WithProgress callback with the delivered
// count and the rate since the previous report, and arms the next
// threshold.
func (s *Session) reportProgress() {
	now, events := time.Now(), s.frontier.delivered
	rate := 0.0
	if dt := now.Sub(s.lastReport).Seconds(); dt > 0 {
		rate = float64(events-s.lastProgress) / dt
	}
	s.cfg.progressFn(Progress{Events: events, Rate: rate})
	s.lastProgress, s.lastReport = events, now
	s.nextProgress = nextBoundary(events, s.cfg.progressEvery)
}

// stop drains and stops the worker group, if one runs, and checks
// that every replica processed exactly the delivered events; on a
// session without an earlier failure a mismatch becomes the sticky
// error. Run, Result and Close end a session through it.
func (s *Session) stop() {
	if s.group == nil {
		return
	}
	s.group.Close()
	s.group = nil
	if s.err != nil {
		return
	}
	for w, e := range s.engines {
		if e.Events() != s.frontier.delivered {
			s.err = fmt.Errorf("treeclock: internal error: worker %d processed %d of %d events", w, e.Events(), s.frontier.delivered)
			return
		}
	}
}

// bindPush transitions an idle session into push mode: reject the
// options that only make sense around a source decoder, then start
// the session with the feed frontier as its checkpoint source.
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
	case cfg.validate:
		return fmt.Errorf("treeclock: StreamValidate requires a pull-mode source (validate before feeding)")
	case cfg.internCap > 0:
		return fmt.Errorf("treeclock: WithInternCap requires text input (push sessions feed decoded events)")
	}
	if err := s.start(&s.frontier); err != nil {
		return err
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
	return s.frontier.delivered, nil
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
	if s.cancelled() {
		return s.err
	}
	return s.feed(events)
}

// checkpoint emits one cadence checkpoint through the configured sink,
// quiescing the worker group first so every replica stands at the
// delivered frontier.
func (s *Session) checkpoint() error {
	emit := func(events uint64) error {
		return emitCheckpoint(&s.cfg, &s.scratch, s.info.Name, len(s.engines), events, s.ckptSrc, s.engines)
	}
	if s.group != nil {
		return s.group.Barrier(emit)
	}
	return emit(s.frontier.delivered)
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
		return writeCheckpoint(w, s.info.Name, &s.cfg, len(s.engines), events, &s.frontier, s.engines)
	}
	if s.group != nil {
		return s.group.Barrier(write)
	}
	return write(s.frontier.delivered)
}

// Events returns the number of trace events the session has accepted
// so far (including any restored by ResumeFrom). Zero for an idle
// or freshly resumed-at-zero session.
func (s *Session) Events() uint64 { return s.frontier.delivered }

// Mem reports the session's current retained-state accounting, merged
// across replicas, when the engine implements the memory-reporting
// extension (currently the "wcp-*" orders); ok is false otherwise.
// While a worker group runs it is quiesced for the read.
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
	if s.group != nil {
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
		s.stop()
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
	s.stop()
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
	if len(s.engines) > 1 && s.cfg.analysis {
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

// feedSource is the session's delivered-event count and the
// CheckpointableSource of a push-mode session: the events arrive
// pre-decoded from the caller, so the only decode frontier worth
// recording is the count of events delivered — a resumed feeder
// re-ships from there. It never produces events itself (Feed hands
// batches to the session's per-batch step directly).
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
