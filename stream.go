package treeclock

// The one-pass streaming analysis API: RunStream feeds a trace from an
// io.Reader straight through a partial-order engine with no prior
// metadata and no materialization, so memory is proportional to the
// live identifier spaces (threads, locks, touched variables), not the
// trace length. Engines are selected by name from a registry; see
// Engines and EngineInfos.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"

	"treeclock/internal/analysis"
	"treeclock/internal/engine"
	"treeclock/internal/hb"
	"treeclock/internal/maz"
	"treeclock/internal/shb"
	"treeclock/internal/trace"
	"treeclock/internal/vt"
	"treeclock/internal/wcp"
)

// EngineInfo describes one registry entry.
type EngineInfo struct {
	// Name is the registry key, "<order>-<clock>": e.g. "hb-tree".
	Name string
	// Order is the partial order: "hb", "shb", "maz" or "wcp".
	Order string
	// Clock is the data structure: "tree" or "vc".
	Clock string
	// Doc is a one-line description.
	Doc string
}

// engineRegistry maps engine names to their construction recipe.
var engineRegistry = map[string]EngineInfo{
	"hb-tree":  {"hb-tree", "hb", "tree", "happens-before with tree clocks (Algorithm 3)"},
	"hb-vc":    {"hb-vc", "hb", "vc", "happens-before with vector clocks (Algorithm 1)"},
	"shb-tree": {"shb-tree", "shb", "tree", "schedulable-happens-before with tree clocks (Algorithm 4)"},
	"shb-vc":   {"shb-vc", "shb", "vc", "schedulable-happens-before with vector clocks"},
	"maz-tree": {"maz-tree", "maz", "tree", "Mazurkiewicz order with tree clocks (Algorithm 5)"},
	"maz-vc":   {"maz-vc", "maz", "vc", "Mazurkiewicz order with vector clocks"},
	"wcp-tree": {"wcp-tree", "wcp", "tree", "weakly-causally-precedes with tree clocks (predictive races)"},
	"wcp-vc":   {"wcp-vc", "wcp", "vc", "weakly-causally-precedes with vector clocks"},
}

// Engines returns the registered engine names, sorted.
func Engines() []string {
	names := make([]string, 0, len(engineRegistry))
	for name := range engineRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// EngineInfos returns the registry entries, sorted by name.
func EngineInfos() []EngineInfo {
	infos := make([]EngineInfo, 0, len(engineRegistry))
	for _, name := range Engines() {
		infos = append(infos, engineRegistry[name])
	}
	return infos
}

// streamConfig collects RunStream options.
type streamConfig struct {
	binary        bool // StreamBinary: the reader holds the binary format
	analysis      bool
	validate      bool
	pipeline      int  // pipelined-decode depth; <= 0 = synchronous
	pipelineSet   bool // WithPipeline was given (auto-selection is off)
	workers       int  // sharded-analysis replica count; <= 0 = sequential
	progressEvery uint64
	progressFn    func(Progress)
	stats         *WorkStats
	ctx           context.Context // WithContext; nil = never cancelled
	ckptEvery     uint64          // WithCheckpoint cadence; 0 = off
	ckptSink      CheckpointSink  // WithCheckpoint destination
	resume        io.Reader       // ResumeFrom checkpoint stream; nil = fresh run
	slotReclaim   bool            // WithSlotReclaim: retire fully-joined thread slots
	summaryCap    int             // WithSummaryCap: wcp rule-(a) summary budget; 0 = unbounded
	internCap     int             // WithInternCap: text-interner name budget; 0 = unbounded
}

// StreamOption configures RunStream.
type StreamOption func(*streamConfig)

// newConfig applies opts over the defaults: text input, analysis on,
// sequential.
func newConfig(opts []StreamOption) streamConfig {
	cfg := streamConfig{analysis: true}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// StreamBinary makes RunStream read the compact binary format of
// WriteTraceBinary instead of the default text format.
func StreamBinary() StreamOption {
	return func(c *streamConfig) { c.binary = true }
}

// StreamNoAnalysis disables race / reversible-pair detection, computing
// the pure partial order (what the paper times as "HB", "SHB", "MAZ").
func StreamNoAnalysis() StreamOption {
	return func(c *streamConfig) { c.analysis = false }
}

// StreamWorkStats accumulates data-structure work counters into st.
func StreamWorkStats(st *WorkStats) StreamOption {
	return func(c *streamConfig) { c.stats = st }
}

// WithPipeline runs trace decoding in its own goroutine, feeding the
// engine batches through a ring of depth recycled buffers so parsing
// overlaps analysis. Batches are consumed in trace order, so results
// are identical to the synchronous path. A depth of at least 2 is
// enforced; depth <= 0 forces the synchronous path. Without this
// option RunStream decides on its own: text input decodes pipelined
// when more than one CPU is available (GOMAXPROCS > 1), since the
// extra goroutine only pays off when decode and analysis cost are
// comparable and a second core exists to overlap them; binary input
// and sharded (WithWorkers) runs stay synchronous — the parallel
// coordinator already decodes concurrently with analysis.
func WithPipeline(depth int) StreamOption {
	return func(c *streamConfig) { c.pipeline, c.pipelineSet = depth, true }
}

// WithWorkers runs the analysis sharded across n workers: variables
// partition across n full engine replicas by stable hash, each replica
// processes the whole event stream in trace order (sequenced by a
// coordinator through per-worker SPSC ring queues, so clock evolution
// is identical everywhere), and the per-variable race analysis — the
// dominant per-event cost on access-heavy workloads — runs only on the
// variable's owner. The merged result — counts, samples in trace
// order, timestamps, metadata — is byte-identical to the sequential
// run's; StreamResult.Mem sums the replicas' retained state (and so
// grows with the worker count: sharding trades replicated clock
// scaffolding for parallel analysis).
//
// Any n >= 1 selects the sharded runtime, one worker included (it
// runs the coordinator and one replica); n <= 0, like leaving the
// option out, selects the sequential path. WithPipeline is rarely
// worth it here: the coordinator already decodes concurrently with
// the workers. See internal/parallel for the transport.
func WithWorkers(n int) StreamOption {
	return func(c *streamConfig) { c.workers = n }
}

// WithSlotReclaim makes the engine reclaim thread slots: when a thread
// has been joined and no live clock can still receive a component for
// it, its slot is retired and becomes eligible for reuse by a later
// fork, so thread-churn workloads hold clocks of width proportional to
// the peak number of live threads instead of the total ever forked.
// Reclamation changes no analysis result — race counts and samples are
// identical to an unreclaimed run's — but reported thread ids are
// internal slot numbers rather than first-appearance ordinals, and
// StreamResult.Timestamps has one entry per slot. The "wcp-*" engines
// reject the option (their rule-(a) summaries outlive joins; see the
// engine.Runtime.EnableSlotReclaim contract).
func WithSlotReclaim() StreamOption {
	return func(c *streamConfig) { c.slotReclaim = true }
}

// WithSummaryCap bounds the "wcp-*" engines' per-(lock, variable,
// thread) rule-(a) acquire summaries to roughly n live entries: when
// the count exceeds n at a release boundary, summaries whose snapshots
// are dominated by the lock's latest published release clock are
// dropped (a sound no-op — joining them later could not move any weak
// clock). The cap is a soft target: entries under locks currently held
// are never dropped, so a pathological all-locks-held instant can
// exceed it. n <= 0 (the default) disables aging. Engines whose order
// is not "wcp" ignore the option.
func WithSummaryCap(n int) StreamOption {
	return func(c *streamConfig) { c.summaryCap = n }
}

// WithInternCap bounds the text tokenizer's map-interned name table to
// roughly n names, evicting the coldest when the budget is exceeded.
// An evicted name seen again is treated as a brand-new identifier
// (fresh id — ids are never reused), which is sound exactly when the
// old identifier's analysis state is dead: a race between an access
// before the eviction and one after it is missed. Use it for
// month-long streams whose identifier names churn (thread names,
// per-request variable names) and are never revisited once cold.
// Canonical names ("t3", "x128") resolve through a bounded
// direct-index array and are not subject to the cap. n <= 0 (the
// default) disables eviction. The option requires text input: binary
// traces and pre-decoded sources carry numeric ids, so there is
// nothing to evict, and asking for a cap there fails the run.
func WithInternCap(n int) StreamOption {
	return func(c *streamConfig) { c.internCap = n }
}

// Progress is one WithProgress report.
type Progress struct {
	// Events is the number of trace events processed so far.
	Events uint64
	// Rate is the observed throughput in events/second since the
	// previous report (since the start, for the first).
	Rate float64
}

// WithProgress reports ingestion progress: fn fires after roughly
// every `every` events (at batch granularity; every == 0 selects one
// report per million events) with the running event count and the
// events/second rate since the previous report. The callback runs
// synchronously on the goroutine that consumes the decoded stream —
// the caller's for plain and pipelined runs (the wrapper counts
// batches as the engine acquires them), the coordinator's for sharded
// (WithWorkers) runs — so it must be cheap and, under workers, must
// not assume the caller's goroutine.
func WithProgress(every uint64, fn func(Progress)) StreamOption {
	return func(c *streamConfig) { c.progressEvery, c.progressFn = every, fn }
}

// StreamValidate enforces trace well-formedness incrementally while
// streaming (lock discipline, fork/join sanity — the checks of
// Trace.Validate that need no prior metadata). A violation aborts the
// run with a descriptive error; without it, a malformed trace yields
// a well-defined but meaningless analysis.
func StreamValidate() StreamOption {
	return func(c *streamConfig) { c.validate = true }
}

// StreamResult is the outcome of one streaming analysis pass.
type StreamResult struct {
	// Engine is the registry name the trace was analyzed with.
	Engine string
	// Meta holds the identifier spaces discovered while streaming.
	Meta Meta
	// Events is the number of events processed.
	Events uint64
	// Summary aggregates the detected concurrent conflicting pairs
	// (zero when analysis was disabled).
	Summary RaceSummary
	// Samples retains up to 64 example pairs.
	Samples []Race
	// Timestamps holds each thread's final vector time under the
	// selected order (for "wcp-*" that is WCP ∪ thread order, not the
	// HB scaffolding the runtime keeps internally).
	Timestamps []Vector
	// Mem reports the engine's retained-state accounting when the
	// selected order implements the engine.MemReporter extension
	// (currently "wcp-*": critical-section history entries, peak
	// per-lock history length, compacted entries, retained snapshot
	// bytes). Nil for orders whose state is bounded by the live
	// identifier spaces alone.
	Mem *MemStats
}

// MemStats is the retained-state accounting a memory-reporting engine
// exposes (see StreamResult.Mem and the engine.MemReporter extension).
type MemStats = engine.MemStats

// streamEngine is the non-generic view RunStream drives; a
// runtimeAdapter instantiates it per clock type. ProcessBatchAt and
// Acc serve the sharded path: parallel workers are fed positioned
// batches and their accumulators merged afterwards.
type streamEngine interface {
	ProcessSource(trace.EventSource) error
	ProcessBatchAt(base uint64, events []trace.Event)
	Events() uint64
	Meta() trace.Meta
	Mem() (engine.MemStats, bool)
	Acc() *analysis.Accumulator
	Finish() (analysis.Summary, []analysis.Pair, []vt.Vector)
	Checkpointable() bool
	Snapshot(w io.Writer) error
	Restore(r io.Reader) error
}

type runtimeAdapter[C vt.Clock[C]] struct {
	rt  *engine.Runtime[C]
	acc *analysis.Accumulator
	// timestamp overrides the runtime's thread-clock snapshot for
	// orders whose timestamps live outside the runtime's clocks (WCP's
	// weak clocks); nil means the runtime's clocks ARE the order.
	timestamp func(t vt.TID, dst vt.Vector) vt.Vector
}

func (a *runtimeAdapter[C]) ProcessSource(src trace.EventSource) error {
	return a.rt.ProcessSource(src)
}
func (a *runtimeAdapter[C]) ProcessBatchAt(base uint64, events []trace.Event) {
	a.rt.ProcessBatchAt(base, events)
}
func (a *runtimeAdapter[C]) Events() uint64               { return a.rt.Events() }
func (a *runtimeAdapter[C]) Meta() trace.Meta             { return a.rt.Meta() }
func (a *runtimeAdapter[C]) Mem() (engine.MemStats, bool) { return a.rt.MemStats() }
func (a *runtimeAdapter[C]) Acc() *analysis.Accumulator   { return a.acc }
func (a *runtimeAdapter[C]) Checkpointable() bool         { return a.rt.Checkpointable() }
func (a *runtimeAdapter[C]) Snapshot(w io.Writer) error   { return a.rt.Snapshot(w) }
func (a *runtimeAdapter[C]) Restore(r io.Reader) error    { return a.rt.Restore(r) }

func (a *runtimeAdapter[C]) Finish() (analysis.Summary, []analysis.Pair, []vt.Vector) {
	k := a.rt.Threads()
	ts := make([]vt.Vector, k)
	for t := 0; t < k; t++ {
		if a.timestamp != nil {
			ts[t] = a.timestamp(vt.TID(t), vt.NewVector(k))
		} else {
			ts[t] = a.rt.Timestamp(vt.TID(t), vt.NewVector(k))
		}
	}
	if a.acc == nil {
		return analysis.Summary{}, nil, ts
	}
	return a.acc.Summary(), a.acc.Samples, ts
}

// newStreamEngine builds the dynamically growing runtime for one
// registry entry over clock type C. A non-nil owns predicate shards
// the per-variable analysis to the variables it accepts: for the
// detector-backed orders (HB, SHB) the whole detector — checks and
// access-history state — is gated, for the self-checking orders (MAZ,
// WCP) the accumulator drops foreign reports; either way the retained
// samples carry trace positions so shards merge back into trace order.
func newStreamEngine[C vt.Clock[C]](order string, f vt.Factory[C], cfg *streamConfig, owns func(int32) bool) (streamEngine, error) {
	var (
		rt        *engine.Runtime[C]
		timestamp func(t vt.TID, dst vt.Vector) vt.Vector
	)
	switch order {
	case "hb":
		rt = engine.New[C](hb.NewSemantics[C](), f)
	case "shb":
		rt = engine.New[C](shb.NewSemantics[C](), f)
	case "maz":
		rt = engine.New[C](maz.NewSemantics[C](), f)
	case "wcp":
		// WCP timestamps are the weak clocks (plus thread order), not
		// the runtime's HB scaffolding.
		sem := wcp.NewSemantics[C]()
		sem.SetSummaryCap(cfg.summaryCap)
		rt = engine.New[C](sem, f)
		timestamp = func(t vt.TID, dst vt.Vector) vt.Vector {
			return sem.Timestamp(t, rt.ThreadClock(t).Get(t), dst)
		}
	default:
		panic("treeclock: unknown partial order " + order)
	}
	if cfg.slotReclaim {
		if err := rt.EnableSlotReclaim(); err != nil {
			return nil, fmt.Errorf("treeclock: WithSlotReclaim: %w", err)
		}
	}
	var acc *analysis.Accumulator
	if cfg.analysis {
		switch order {
		case "maz", "wcp":
			// These orders run their own pair checks and only need an
			// accumulator to report into.
			acc = rt.EnableAnalysis()
			if owns != nil {
				acc.SetShard(owns)
			}
		default:
			det := rt.EnableRaceDetection()
			if owns != nil {
				det.SetShard(owns)
			}
			acc = det.Acc
		}
		if owns != nil {
			acc.TrackPositions()
		}
	}
	return &runtimeAdapter[C]{rt: rt, acc: acc, timestamp: timestamp}, nil
}

// RunStream analyzes a trace read from r with the named engine in a
// single streaming pass: no prior Meta, no materialization, memory
// proportional to the live identifier spaces (engines with inherently
// event-dependent state bound and report it — see StreamResult.Mem).
// The engine name is a registry key (see Engines): "hb-tree", "hb-vc",
// "shb-tree", "shb-vc", "maz-tree", "maz-vc", "wcp-tree" or "wcp-vc".
// Race / reversible-pair analysis is on by default; configure with
// StreamOption values (WithWorkers shards the analysis across cores).
func RunStream(engineName string, r io.Reader, opts ...StreamOption) (*StreamResult, error) {
	cfg := newConfig(opts)
	var src trace.EventSource = trace.NewScanner(r)
	if cfg.binary {
		src = trace.NewBinaryScanner(r)
	}
	if !cfg.pipelineSet {
		cfg.pipeline = autoPipelineDepth(&cfg, runtime.GOMAXPROCS(0))
	}
	return runStream(engineName, src, cfg)
}

// defaultPipelineDepth is the decode-ring depth auto-selected for text
// input on multi-core hosts.
const defaultPipelineDepth = 4

// autoPipelineDepth is the decode-mode selection applied when
// WithPipeline was not given: text input decodes in its own goroutine
// when a second CPU exists to overlap parsing with analysis, and
// everything else stays synchronous — binary decode is too cheap to
// win a goroutine hand-off, and sharded runs already overlap decode
// (the coordinator parses while the workers analyze).
func autoPipelineDepth(cfg *streamConfig, maxprocs int) int {
	if cfg.workers >= 1 || cfg.binary || maxprocs < 2 {
		return 0
	}
	if cfg.ckptSink != nil || cfg.resume != nil {
		// The pipelined decoder's in-flight state is not checkpointable.
		return 0
	}
	return defaultPipelineDepth
}

// RunStreamSource is RunStream over an already-constructed event
// source — a trace scanner, an in-memory TraceReplayer, or one of the
// endless workload generators (GenerateHotLockStream and friends,
// capped with LimitEvents). StreamBinary is ignored (the source is
// already decoded); validation, pipelining and sharding apply as in
// RunStream. A source without batch support is drained one event at a
// time.
func RunStreamSource(engineName string, src EventSource, opts ...StreamOption) (*StreamResult, error) {
	return runStream(engineName, src, newConfig(opts))
}

// runStream is the single funnel behind both RunStream entry points:
// open a session over the configuration, drain src through it
// pull-mode, close. Validation, the drivers and result assembly all
// live on Session.
func runStream(engineName string, src trace.EventSource, cfg streamConfig) (*StreamResult, error) {
	s, err := newSession(engineName, cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Run(src)
}

// driveSequential is the explicit batch loop the sequential path runs
// when it needs per-batch control (cancellation checks, checkpoint
// boundaries); results are identical to Runtime.ProcessSource. The
// plain configuration keeps the runtime's own loop, whose
// BatchProducer fast path the pipelined decoder relies on.
func driveSequential(e streamEngine, src trace.EventSource, cfg *streamConfig, engineName string) error {
	if cfg.ctx == nil && cfg.ckptSink == nil {
		return e.ProcessSource(src)
	}
	var (
		buf     = make([]trace.Event, trace.DefaultBatchSize)
		scratch bytes.Buffer
		next    uint64
		cs      trace.CheckpointableSource
	)
	if cfg.ckptSink != nil {
		cs, _ = asCheckpointable(src) // validated by the caller
		next = nextBoundary(e.Events(), cfg.ckptEvery)
	}
	for {
		if cfg.ctx != nil {
			select {
			case <-cfg.ctx.Done():
				return cfg.ctx.Err()
			default:
			}
		}
		n, ok := trace.ReadBatch(src, buf)
		if n > 0 {
			e.ProcessBatchAt(e.Events(), buf[:n])
		}
		if cs != nil && e.Events() >= next {
			if err := emitCheckpoint(cfg, &scratch, engineName, 1, e.Events(), cs, []streamEngine{e}); err != nil {
				return err
			}
			next = nextBoundary(e.Events(), cfg.ckptEvery)
		}
		if !ok {
			return src.Err()
		}
	}
}

// nextBoundary returns the first checkpoint threshold past events.
func nextBoundary(events, every uint64) uint64 {
	next := events + every
	next -= next % every
	if next <= events {
		next += every
	}
	return next
}

// foldInternStats adds the capped interner's retained-state accounting
// to the result. The interner lives in the trace scanner, not the
// engine, so the runtime cannot report it; a run without WithInternCap
// passes a nil scanner and the result is untouched (Mem stays nil for
// orders without a memory reporter).
func foldInternStats(res *StreamResult, sc trace.InternCapable) {
	if res == nil || sc == nil {
		return
	}
	live, evictions := sc.InternStats()
	if res.Mem == nil {
		res.Mem = &MemStats{}
	}
	res.Mem.InternedNames = live
	res.Mem.InternEvictions = evictions
}

// wrapProgress adapts the config's callback to the trace-level
// progress wrapper.
func wrapProgress(src trace.EventSource, cfg *streamConfig) trace.EventSource {
	fn := cfg.progressFn
	return trace.NewProgressSource(src, cfg.progressEvery, func(events uint64, rate float64) {
		fn(Progress{Events: events, Rate: rate})
	})
}
