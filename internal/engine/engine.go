// Package engine is the shared runtime for the streaming partial-order
// engines (the paper's Algorithms 1/3/4/5). It owns everything the HB,
// SHB and Mazurkiewicz analyses have in common — per-thread and per-lock
// clock state, the Acquire/Release/Fork/Join dispatch, the per-event
// local-time increment (footnote 1), event counting, timestamps, and
// lazy per-object allocation — and delegates only the read/write
// semantics to a small Semantics plugin. Instantiating the runtime with
// a different Semantics yields a different partial order; instantiating
// it with a different vt.Clock yields the tree-clock or vector-clock
// variant. The partial-order packages (internal/hb, internal/shb,
// internal/maz, internal/wcp) are therefore reduced to plugins; the
// engine registry in the root package binds each to a runtime.
//
// Orders that depend on more than read/write structure opt into the
// extension interfaces: LockSemantics adds Acquire/Release hooks (per-
// lock critical-section history, release-ordering rules) and
// ThreadSemantics adds Fork/Join hooks. The runtime detects both once
// at construction and calls the hooks after its own uniform handling
// of the event, so plugins observe the event's final timestamp and the
// plain Read/Write-only plugins run exactly as before.
//
// The runtime is streaming end to end: it needs no trace.Meta. Thread,
// lock and variable state is allocated (and clocks are grown, see the
// Grow contract in internal/core) on first sight of an identifier, so a
// trace can be fed event by event from a reader of unbounded length.
// The runtime's own memory is proportional to the live identifier
// spaces only; a Semantics plugin that must retain event-dependent
// state (WCP's critical-section histories) is responsible for bounding
// it — internal/wcp compacts its per-lock histories as rule-(b)
// cursors pass them — and reports what it retains through the
// MemReporter extension so the bound is measurable and testable.
package engine

import (
	"treeclock/internal/analysis"
	"treeclock/internal/trace"
	"treeclock/internal/vt"
)

// Semantics is the per-partial-order plugin: it defines what a read and
// a write of a shared variable mean for the order being computed. All
// other event kinds are handled uniformly by the runtime. Hooks run
// after the thread's local-time increment, with ct the thread's clock
// (the event's timestamp is ct when the hook returns). Implementations
// keep any extra per-variable state (last-write clocks, read sets) and
// must grow it on first sight of an identifier, mirroring the runtime.
type Semantics[C vt.Clock[C]] interface {
	// Read handles op = r(x) by thread t.
	Read(rt *Runtime[C], t vt.TID, x int32, ct C)
	// Write handles op = w(x) by thread t.
	Write(rt *Runtime[C], t vt.TID, x int32, ct C)
}

// LockSemantics is an optional extension of Semantics for partial
// orders that cannot be expressed through read/write hooks alone
// because they depend on critical-section structure (which events ran
// under which lock, and how releases order against each other). The
// runtime detects the extension once at construction; plugins that do
// not implement it (HB, SHB, MAZ) are dispatched exactly as before.
//
// Both hooks run after the runtime's uniform lock handling, so when
// Acquire is called ct has already joined the lock's clock C_ℓ, and
// when Release is called C_ℓ has already been overwritten with ct.
// ct therefore carries the event's own timestamp (its local entry is
// the event's local time), which is what release-ordering rules such
// as WCP's rule (b) need to snapshot.
type LockSemantics[C vt.Clock[C]] interface {
	Semantics[C]
	// Acquire handles op = acq(l) by thread t.
	Acquire(rt *Runtime[C], t vt.TID, l int32, ct C)
	// Release handles op = rel(l) by thread t.
	Release(rt *Runtime[C], t vt.TID, l int32, ct C)
}

// MemStats is a snapshot of the per-run state a Semantics plugin
// retains beyond the live identifier spaces — the state the streaming
// memory contract is about. Plain plugins (HB, SHB, MAZ) keep only
// O(threads + locks + variables) clocks and report nothing; plugins
// with event-dependent state (WCP's critical-section histories)
// implement MemReporter so soak tests and the tcbench mem experiment
// can assert and track the retained-state bound.
type MemStats struct {
	// HistEntries is the number of live critical-section history
	// entries across all locks.
	HistEntries int
	// PeakLockHist is the high-water mark of a single lock's history
	// length over the run — the quantity history compaction bounds.
	PeakLockHist int
	// DroppedEntries counts history entries reclaimed by compaction.
	DroppedEntries uint64
	// RetainedBytes approximates the bytes pinned by retained
	// snapshots, cursors and summaries (8 bytes per vector entry plus
	// small per-object constants; map overhead is not counted).
	RetainedBytes uint64
	// SummaryVectors is the number of rule-(a)-style summary vectors
	// retained (bounded by live (lock, variable, thread) triples).
	SummaryVectors int
	// FreeVectors is the number of recycled snapshot vectors parked in
	// the plugin's free list awaiting reuse.
	FreeVectors int
	// SummaryEvictions counts rule-(a) summary vectors dropped by the
	// aging sweep (internal/wcp, SetSummaryCap) over the run.
	SummaryEvictions uint64

	// ThreadSlots is the number of internal clock slots ever issued —
	// the effective clock capacity k. With slot reclamation off it
	// equals the number of threads the trace ever named; with it on it
	// plateaus at the peak number of concurrently live threads (plus
	// retired slots whose reuse the soundness gate rejected).
	ThreadSlots int
	// FreeSlots is the number of retired slots awaiting reuse.
	FreeSlots int
	// RetiredSlots / ReusedSlots count slot retirements and re-issues
	// over the run (reclamation only; zero otherwise).
	RetiredSlots uint64
	ReusedSlots  uint64

	// InternedNames / InternEvictions report the text scanner's
	// identifier interner when an intern cap is set (RunStream fills
	// them in; the runtime itself never sees the scanner).
	InternedNames   int
	InternEvictions uint64
}

// MemReporter is an optional extension of Semantics: plugins that
// retain per-run state beyond the live identifier spaces report it for
// accounting. The runtime detects the extension once at construction,
// like LockSemantics, and surfaces it through Runtime.MemStats (and
// from there through RunStream's StreamResult).
type MemReporter interface {
	// MemStats reports the plugin's currently retained state. It may
	// walk the retained structures (O(retained state), not O(1)), so
	// callers should treat it as a reporting call, not a hot-path one.
	MemStats() MemStats
}

// ThreadSemantics is the fork/join counterpart of LockSemantics:
// plugins that maintain order-specific per-thread state (WCP's
// weak-order clocks) observe thread creation and joining through it.
// The hooks run after the runtime's uniform handling — at Fork the
// child's clock has already joined ct, at Join ct has already joined
// the child's clock — and u names the other thread (the forked child,
// or the thread joined on).
type ThreadSemantics[C vt.Clock[C]] interface {
	Semantics[C]
	// Fork handles op = fork(u) by thread t.
	Fork(rt *Runtime[C], t vt.TID, u vt.TID, ct C)
	// Join handles op = join(u) by thread t.
	Join(rt *Runtime[C], t vt.TID, u vt.TID, ct C)
}

// Runtime computes a partial order over a streamed trace. Per thread t
// it maintains the clock C_t; per lock ℓ the clock C_ℓ holding the
// timestamp of ℓ's last release. Reads and writes are delegated to the
// Semantics plugin.
type Runtime[C vt.Clock[C]] struct {
	sem Semantics[C]
	// lockSem / threadSem are non-nil when sem implements the optional
	// extension interfaces; detected once so Step pays one nil check
	// per sync event instead of a type assertion.
	lockSem   LockSemantics[C]
	threadSem ThreadSemantics[C]
	memRep    MemReporter
	ckptSem   CheckpointSemantics[C]
	slots     *slotTable // non-nil when slot reclamation is on (slots.go)
	factory   vt.Factory[C]
	threads   []C
	locks     []C
	lockSet   []bool // locks[l] allocated
	det       *analysis.Detector[C]
	acc       *analysis.Accumulator
	events    uint64
	vars      int // variable-id high-water mark (for Meta reporting)
}

// New returns a dynamically growing runtime: it assumes nothing about
// the trace's identifier spaces and allocates state on first sight.
func New[C vt.Clock[C]](sem Semantics[C], factory vt.Factory[C]) *Runtime[C] {
	r := &Runtime[C]{sem: sem, factory: factory}
	if ls, ok := sem.(LockSemantics[C]); ok {
		r.lockSem = ls
	}
	if ts, ok := sem.(ThreadSemantics[C]); ok {
		r.threadSem = ts
	}
	if mr, ok := sem.(MemReporter); ok {
		r.memRep = mr
	}
	if cs, ok := sem.(CheckpointSemantics[C]); ok {
		r.ckptSem = cs
	}
	return r
}

// MemStats reports the semantics plugin's retained-state accounting,
// when the plugin implements the MemReporter extension, plus the
// runtime's own slot-reclamation accounting when that is enabled; ok
// is false when neither has anything to report (HB, SHB, MAZ with
// reclamation off: state bounded by the live identifier spaces alone).
func (r *Runtime[C]) MemStats() (ms MemStats, ok bool) {
	if r.memRep != nil {
		ms, ok = r.memRep.MemStats(), true
	}
	if r.slots != nil {
		ms.ThreadSlots = int(r.slots.next)
		ms.FreeSlots = len(r.slots.free)
		ms.RetiredSlots = r.slots.retired
		ms.ReusedSlots = r.slots.reused
		ok = true
	}
	return ms, ok
}

// growThreads extends the thread space to n, creating and initializing
// a clock for each new thread at the current capacity.
func (r *Runtime[C]) growThreads(n int) {
	for len(r.threads) < n {
		t := vt.TID(len(r.threads))
		c := r.factory(n)
		c.Init(t)
		r.threads = append(r.threads, c)
	}
}

// growLocks extends the lock space to n; lock clocks themselves are
// allocated on first use (many locks in real traces are touched by a
// single thread or never at all).
func (r *Runtime[C]) growLocks(n int) {
	for len(r.locks) < n {
		var zero C
		r.locks = append(r.locks, zero)
		r.lockSet = append(r.lockSet, false)
	}
}

// lock returns lock l's clock, allocating it on first sight.
func (r *Runtime[C]) lock(l int32) C {
	if int(l) >= len(r.locks) {
		r.growLocks(int(l) + 1)
	}
	if !r.lockSet[l] {
		r.locks[l] = r.factory(len(r.threads))
		r.lockSet[l] = true
	}
	return r.locks[l]
}

// NewClock hands semantics plugins a fresh auxiliary clock (zero vector
// time) at the runtime's current thread capacity, sharing the factory's
// work-stats sink.
func (r *Runtime[C]) NewClock() C { return r.factory(len(r.threads)) }

// Threads returns the number of threads seen so far.
func (r *Runtime[C]) Threads() int { return len(r.threads) }

// Meta reports the identifier spaces seen so far.
func (r *Runtime[C]) Meta() trace.Meta {
	return trace.Meta{Threads: len(r.threads), Locks: len(r.locks), Vars: r.vars}
}

// EnableRaceDetection attaches a FastTrack-style detector (the
// "+Analysis" configuration of HB and SHB) and returns it. Without it,
// read and write events reach the Semantics plugin only, matching the
// pure partial-order computation the paper times as "HB"/"SHB".
func (r *Runtime[C]) EnableRaceDetection() *analysis.Detector[C] {
	r.det = analysis.NewDetector[C](len(r.threads), r.vars)
	r.acc = r.det.Acc
	return r.det
}

// EnableAnalysis attaches a bare accumulator, for semantics (MAZ) that
// perform their own pair checks and only need a place to report them.
func (r *Runtime[C]) EnableAnalysis() *analysis.Accumulator {
	r.acc = analysis.NewAccumulator()
	return r.acc
}

// Detector returns the attached race detector, or nil.
func (r *Runtime[C]) Detector() *analysis.Detector[C] { return r.det }

// Analysis returns the attached accumulator (the detector's, when race
// detection is enabled), or nil.
func (r *Runtime[C]) Analysis() *analysis.Accumulator { return r.acc }

// Step processes one event.
func (r *Runtime[C]) Step(ev trace.Event) {
	var recycled bool
	retire := vt.None
	if r.slots != nil {
		ev, recycled, retire = r.remap(ev)
	}
	t := ev.T
	if int(t) >= len(r.threads) {
		r.growThreads(int(t) + 1)
	}
	ct := r.threads[t]
	ct.Inc(t, 1)
	switch ev.Kind {
	case trace.Acquire:
		ct.Join(r.lock(ev.Obj))
		if r.lockSem != nil {
			r.lockSem.Acquire(r, t, ev.Obj, ct)
		}
	case trace.Release:
		// Lemma 2: C_ℓ ⊑ C_t holds here, so the copy is monotone.
		r.lock(ev.Obj).MonotoneCopy(ct)
		if r.lockSem != nil {
			r.lockSem.Release(r, t, ev.Obj, ct)
		}
	case trace.Read:
		if int(ev.Obj) >= r.vars {
			r.vars = int(ev.Obj) + 1
		}
		r.sem.Read(r, t, ev.Obj, ct)
	case trace.Write:
		if int(ev.Obj) >= r.vars {
			r.vars = int(ev.Obj) + 1
		}
		r.sem.Write(r, t, ev.Obj, ct)
	case trace.Fork:
		// The child inherits the parent's knowledge.
		if int(ev.Obj) >= len(r.threads) {
			r.growThreads(int(ev.Obj) + 1)
		}
		if recycled {
			r.forkRecycled(ct, vt.TID(ev.Obj))
		} else {
			r.threads[ev.Obj].Join(ct)
		}
		if r.threadSem != nil {
			r.threadSem.Fork(r, t, vt.TID(ev.Obj), ct)
		}
	case trace.Join:
		if int(ev.Obj) >= len(r.threads) {
			r.growThreads(int(ev.Obj) + 1)
		}
		ct.Join(r.threads[ev.Obj])
		if r.threadSem != nil {
			r.threadSem.Join(r, t, vt.TID(ev.Obj), ct)
		}
	}
	r.events++
	if retire != vt.None {
		r.retireSlot(retire)
	}
}

// Process runs a whole event slice through Step.
func (r *Runtime[C]) Process(events []trace.Event) {
	for i := range events {
		r.Step(events[i])
	}
}

// ProcessSource drains a streaming event source through Step in one
// pass, returning the source's error, if any. Sources that support
// batch delivery are consumed in batches (interface dispatch and the
// streaming-loop overhead amortize to once per trace.DefaultBatchSize
// events instead of once per event); a pipelined decoder's own buffers
// are consumed zero-copy. Use ProcessScalar to force the per-event
// path.
func (r *Runtime[C]) ProcessSource(src trace.EventSource) error {
	switch s := src.(type) {
	case trace.BatchProducer:
		return r.processProducer(s)
	case trace.BatchSource:
		return r.ProcessBatches(s, make([]trace.Event, trace.DefaultBatchSize))
	default:
		return r.ProcessScalar(src)
	}
}

// ProcessScalar drains src one Next call per event — the pre-batching
// streaming loop, kept for comparison benchmarks and as the fallback
// for sources without batch support.
func (r *Runtime[C]) ProcessScalar(src trace.EventSource) error {
	for {
		ev, ok := src.Next()
		if !ok {
			return src.Err()
		}
		r.Step(ev)
	}
}

// ProcessBatches drains a batch source through Step using the
// caller-owned buffer buf (sized to trace.DefaultBatchSize when empty),
// so the interface call, its bounds checks and the loop dispatch run
// once per batch rather than once per event.
func (r *Runtime[C]) ProcessBatches(src trace.BatchSource, buf []trace.Event) error {
	if len(buf) == 0 {
		buf = make([]trace.Event, trace.DefaultBatchSize)
	}
	for {
		n, ok := src.NextBatch(buf)
		for i := 0; i < n; i++ {
			r.Step(buf[i])
		}
		if !ok {
			return src.Err()
		}
	}
}

// ProcessBatchAt steps a batch whose first event sits at global trace
// position base, stamping each event's position into the attached
// accumulator first. It is the sharded-worker entry point
// (internal/parallel): position stamps let per-shard race samples be
// merged back into trace order (analysis.MergeAccumulators), and the
// per-batch granularity matches the fan-out transport. Results are
// identical to Step in a loop.
func (r *Runtime[C]) ProcessBatchAt(base uint64, events []trace.Event) {
	if r.acc == nil {
		for i := range events {
			r.Step(events[i])
		}
		return
	}
	for i := range events {
		r.acc.SetPos(base + uint64(i))
		r.Step(events[i])
	}
}

// MergeMemStats combines the retained-state reports of sharded worker
// replicas into one accounting for the whole parallel run. Replicas
// each retain their own copy of the plugin state (clock evolution is
// replicated, only per-variable analysis is sharded), so the additive
// fields — live entries, drops, bytes, summaries, free-list slots —
// sum to the run's true footprint, while PeakLockHist is a per-lock
// high-water mark and takes the maximum. The slot-reclamation fields
// also take the maximum: every replica runs the same deterministic
// remapping over the full event stream, so the slot space is one
// shared shape replicated per worker, not additional footprint.
func MergeMemStats(stats []MemStats) MemStats {
	var out MemStats
	for _, ms := range stats {
		out.HistEntries += ms.HistEntries
		out.DroppedEntries += ms.DroppedEntries
		out.RetainedBytes += ms.RetainedBytes
		out.SummaryVectors += ms.SummaryVectors
		out.FreeVectors += ms.FreeVectors
		out.SummaryEvictions += ms.SummaryEvictions
		if ms.PeakLockHist > out.PeakLockHist {
			out.PeakLockHist = ms.PeakLockHist
		}
		if ms.ThreadSlots > out.ThreadSlots {
			out.ThreadSlots = ms.ThreadSlots
		}
		if ms.FreeSlots > out.FreeSlots {
			out.FreeSlots = ms.FreeSlots
		}
		if ms.RetiredSlots > out.RetiredSlots {
			out.RetiredSlots = ms.RetiredSlots
		}
		if ms.ReusedSlots > out.ReusedSlots {
			out.ReusedSlots = ms.ReusedSlots
		}
		if ms.InternedNames > out.InternedNames {
			out.InternedNames = ms.InternedNames
		}
		if ms.InternEvictions > out.InternEvictions {
			out.InternEvictions = ms.InternEvictions
		}
	}
	return out
}

// processProducer consumes a batch-owning source (the pipelined
// decoder) without copying: each acquired buffer is stepped through and
// recycled.
func (r *Runtime[C]) processProducer(src trace.BatchProducer) error {
	for {
		b, ok := src.AcquireBatch()
		if !ok {
			return src.Err()
		}
		for i := range b {
			r.Step(b[i])
		}
		src.ReleaseBatch(b)
	}
}

// Events returns the number of events processed.
func (r *Runtime[C]) Events() uint64 { return r.events }

// ThreadClock exposes thread t's clock (its current timestamp).
func (r *Runtime[C]) ThreadClock(t vt.TID) C { return r.threads[t] }

// Timestamp snapshots thread t's current vector time into dst.
func (r *Runtime[C]) Timestamp(t vt.TID, dst vt.Vector) vt.Vector {
	return r.threads[t].Vector(dst)
}
