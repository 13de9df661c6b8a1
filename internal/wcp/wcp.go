// Package wcp computes the weakly-causally-precedes partial order of
// Kini, Mathur and Viswanathan ("Dynamic Race Prediction in Linear
// Time", PLDI 2017) in a single streaming pass, as a plugin for the
// shared engine runtime. WCP weakens happens-before: a lock edge
// orders two critical sections only when their bodies conflict
// (rule a), releases of same-lock sections are ordered once their
// bodies become WCP-ordered (rule b), and the relation is closed under
// composition with HB on both sides (rule c). Conflicting accesses
// left unordered by WCP ∪ thread-order are predictive races — races
// HB misses because the observed lock serialization hid them. The
// reference semantics lives in internal/oracle (oracle.WCP); the
// differential tests pin this engine against it event by event.
//
// # State
//
// Unlike HB/SHB/MAZ, WCP needs two kinds of per-thread knowledge. The
// HB backbone (thread/lock clocks, acquire/release/fork/join edges) is
// the runtime's and stays generic over the clock data structure — the
// tree-clock variant accelerates exactly those operations. On top of
// it this plugin maintains, via the LockSemantics/ThreadSemantics
// hooks:
//
//   - per thread t, the weak clock W_t: the pure WCP knowledge
//     {e : e ≺WCP next event of t}. Unlike a thread clock, W_t's own
//     entry is NOT t's local time (thread order is deliberately
//     outside WCP; the race check treats the own thread separately),
//     and other threads routinely hold entries for t that are ahead of
//     W_t's own entry. That breaks the provenance invariant tree-clock
//     joins rely on ("only t's own clock knows t's future"), which is
//     why weak clocks cannot be tree clocks for either registry
//     variant — the observation that motivates the CSSTs line of work
//     on data structures for weak orders (Tunç et al., arXiv
//     2403.17818). Both variants share this code, so wcp-tree and
//     wcp-vc differ only in the HB backbone and produce byte-identical
//     reports by construction.
//   - per lock ℓ, the weak clock of the last release (rule-c transport
//     across the release→acquire HB edge), a FIFO history of closed
//     critical sections — releasing thread, acquire local time, HB
//     snapshot of the release — with one read cursor per thread
//     (rule b), and per-variable summaries of the HB snapshots of
//     releases whose section read/wrote the variable, kept per
//     contributing thread so a thread never consumes its own sections
//     (rule a applies to sections of different threads only).
//
// All of it grows on first sight of an identifier, like every other
// engine: the plugin needs no trace metadata.
//
// # Weak-clock representation
//
// The weak clocks and release snapshots are generic over the transport
// representation (vt.WeakClock / vt.SnapStore): the flat Θ(k) vectors
// that used to be hard-coded remain available as the differential
// baseline (NewSemanticsFlat), but the default is the sparse
// copy-on-write segment representation of vt.Sparse/vt.SparseStore.
// Its costs per release are
//
//   - snapshot: O(k/SegSize) segment compares against the thread's
//     previous release, plus one segment copy per segment in which a
//     *foreign* entry advanced since then — the releaser's own entry
//     is carried out of band as an epoch, so the pure-sync steady
//     state (one lock partner per round) copies exactly one segment
//     and shares the rest by reference;
//   - rule-(b) absorption: one segment join per segment, with
//     pointer-equal and dominated segments short-circuiting to a
//     reference share, plus an O(1) epoch fix for the snapshot's own
//     entry;
//   - publish and rule-(c) transport: reference shares (O(changed
//     segments) amortized).
//
// Soundness of the out-of-band epoch: a snapshot's segments hold the
// exact HB release time for every thread but the releaser itself,
// whose slot may be stale (it is exactly what lets consecutive
// releases share segments). The stale value is bounded by the true
// epoch (a thread's own time only grows), and every absorption repairs
// the slot from the epoch before the weak clock can be observed, so
// weak clocks are exact in every entry and the flat and sparse
// representations are observationally identical — pinned by a
// differential test over the whole corpus.
//
// The rule-(b) scan exploits the same monotonicity the compaction
// proof rests on: snapshots along one lock's history are pointwise
// increasing (each releaser joined the previous release's clock at its
// acquire), so absorbing every triggered entry equals absorbing only
// the last one. The scan therefore advances the cursor entry by entry
// — checking triggers against the thread's weak clock joined with the
// last pending snapshot — and performs a single absorption at the end:
// O(entries passed + changed segments) per release instead of a full
// join per passed entry.
//
// # Memory
//
// Everything above is bounded by the live identifier spaces — O(threads
// × (threads + locks)) for the weak clocks and cursors, O(locks × vars
// × threads) snapshots for the rule-(a) summaries (each replaced in
// place, one per contributing thread) — except the per-lock section
// histories, whose entries each pin a release snapshot and which grow
// with the trace. They are therefore compacted: an entry is dropped
// from the FIFO as soon as some thread other than its releaser has
// absorbed it (advanced its rule-(b) cursor past it), and the freed
// snapshot storage is recycled through the store's free pool. Dropping
// then is sound on well-formed traces: the absorbing release merges
// the entry's snapshot into its weak clock *before* publishing it as
// ℓ's weak clock, lock publications grow monotonically along ℓ's
// release chain (each publisher first joined the previous publication
// at its acquire), and any thread that could still scan the entry must
// release ℓ later and hence acquire ℓ after the absorbing release —
// inheriting the snapshot there, which makes its own absorption a
// no-op. Note the gate must be a *foreign* cursor: the releaser's own
// cursor skips its entries without absorbing them, and its published
// weak clock never contains its own release snapshots, so "every
// acquiring thread's cursor has passed the entry" (or any scheme
// counting the owner) would lose orderings for threads that first
// touch ℓ — or first appear — later and reach the entry's trigger
// condition through a nested-lock rule-(a) summary (see
// TestWCPCompactionLateThreadSoundness).
//
// Under compaction a lock's retained history is the unabsorbed tail
// only: O(threads) entries on workloads whose critical sections
// conflict (the hot-lock shape — every entry is absorbed by the next
// foreign release), unbounded only when entries can never trigger rule
// (b) for anyone, in which case the WCP definition itself needs them
// indefinitely (the same asymptotics as the paper's per-thread queues,
// which also drain only as their conditions fire). The retained state
// is observable: the plugin implements engine.MemReporter, and
// LockHistStats breaks the accounting down per lock.
//
// The rule-(a) summaries have a leak of their own on long streams:
// "O(locks × vars × threads)" is a live-space bound, and a workload
// that rotates its guarded variables through an ever-growing space
// accretes one summary per (lock, var, thread) touched, forever.
// SetSummaryCap bounds them by aging: once live contributions exceed
// the cap, releases sweep out every contribution whose snapshot is
// dominated pointwise by its lock's latest published weak clock.
// Dropping those is a no-op by the publication-chain argument
// (sweepSummaries documents it: any future absorber acquires the lock
// first and joins a publication at or above today's, so the absorption
// was already redundant); locks currently held are skipped because
// their holders joined an older publication and are not yet covered.
// The cap is therefore soft — irreducible summary state is never
// dropped — and capped runs are observationally identical to
// unbounded ones, pinned by the aging differential, a late-thread
// oracle scenario and the churn-plateau soak (aging_test.go).
// Evictions are counted in MemStats.SummaryEvictions, and the sweep
// schedule (cap + cap/8 hysteresis) is checkpointed so resumed runs
// sweep at the same points and stay byte-identical.
//
// # Event handling
//
//   - Acquire: join ℓ's weak clock into W_t (transport), open a
//     section.
//   - Release: scan ℓ's history from t's cursor: while the head
//     entry's acquire is WCP-before this release (epoch check against
//     W_t and the pending snapshot), advance the cursor, then absorb
//     the last triggered snapshot into W_t (rule b; FIFO order is
//     sound because an entry can only trigger if every earlier foreign
//     entry triggers — releases are HB-ordered along a lock). Then
//     close the section: append its HB snapshot to the history and
//     install it as the per-variable summary of everything the section
//     accessed, and publish W_t as ℓ's weak clock.
//   - Read: absorb the write summaries of every held lock for x into
//     W_t (rule a), then run the race check, then record x into the
//     open sections' read sets.
//   - Write: as Read, but absorb read and write summaries, and check
//     against both the last write and the pending reads.
//   - Fork/Join: propagate W along the corresponding HB edges
//     (rule c).
//
// Race checks are FastTrack-style epoch comparisons — last-write
// epoch, last-read epoch promoted to a read vector only when reads are
// concurrent — but ordering is decided by "same thread, or within
// W_t": thread order is checked positionally because WCP does not
// contain it. Detected pairs are reported into the runtime's analysis
// accumulator (Runtime.EnableAnalysis), like MAZ's reversible pairs.
package wcp

import (
	"treeclock/internal/analysis"
	"treeclock/internal/engine"
	"treeclock/internal/vt"
)

// csEntry is one closed critical section in a lock's FIFO history.
type csEntry[S any] struct {
	t     vt.TID  // releasing thread
	acqLT vt.Time // local time of the section's acquire
	rel   S       // HB snapshot of the release (incl. its own epoch)
}

const (
	histShift = 8 // 256 entries per history chunk
	histLen   = 1 << histShift
	histMask  = histLen - 1
)

// histBuf is a lock's section history as a FIFO of fixed-size chunks.
// A flat append-grown slice would re-zero, copy and write-barrier the
// entire history at every doubling — on rule-(b)-quiet workloads the
// history reaches tens of thousands of entries and that churn was the
// single largest release-path cost — and compaction would memmove the
// surviving tail. Chunks never move once allocated (entry pointers
// stay valid for the owning semantics' lifetime), pushes never copy
// old entries, and dropping a compacted prefix releases whole chunks
// to a free list shared across the engine's locks, so steady-state
// compaction allocates nothing. Entries are addressed by the same
// dense indices the rule-(b) cursors already use; dropFront renumbers
// by shifting head, exactly matching the cursor adjustment compaction
// performs.
type histBuf[S any] struct {
	chunks [][]csEntry[S] // live chunks, oldest first
	head   int            // index of entry 0 inside chunks[0] (< histLen)
	n      int            // live entry count
}

func (h *histBuf[S]) len() int { return h.n }

// at returns entry i (0 = oldest live). The pointer stays valid until
// the entry is dropped: chunks are never moved or copied.
func (h *histBuf[S]) at(i int) *csEntry[S] {
	j := h.head + i
	return &h.chunks[j>>histShift][j&histMask]
}

// push appends an entry for (t, acqLT), drawing chunk storage from
// free when possible, and returns a stable pointer to it. The rel
// field is NOT initialized — a recycled chunk leaves stale data there —
// and the caller must assign it before the entry can be read. Writing
// rel in place rather than pushing a completed entry saves a
// snapshot-sized store (plus its write barrier) per release.
func (h *histBuf[S]) push(t vt.TID, acqLT vt.Time, free *[][]csEntry[S]) *csEntry[S] {
	j := h.head + h.n
	if j>>histShift == len(h.chunks) {
		var c []csEntry[S]
		if k := len(*free); k > 0 {
			c = (*free)[k-1]
			(*free)[k-1] = nil
			*free = (*free)[:k-1]
		} else {
			c = make([]csEntry[S], histLen)
		}
		h.chunks = append(h.chunks, c)
	}
	h.n++
	p := &h.chunks[j>>histShift][j&histMask]
	p.t, p.acqLT = t, acqLT
	return p
}

// dropFront removes the d oldest entries — whose snapshots the caller
// has already returned to the store — recycling fully vacated chunks.
// Chunks are cleared before they reach the free list. Store.Drop zeroes
// each snapshot in place, but nothing else enforces that every slot of
// a vacated chunk went through Drop; a stale rel surviving into the
// free list would be re-issued by push (which deliberately leaves rel
// for the caller to assign), where a stale flat snapshot is a live
// slice header pinning a dropped vector against the collector — heap
// bytes the store's accounting no longer counts — and a stale sparse
// snapshot carries dangling segment refs that a later double Drop
// would subtract from live accounting twice, driving it negative.
func (h *histBuf[S]) dropFront(d int, free *[][]csEntry[S]) {
	h.head += d
	h.n -= d
	for h.head >= histLen && len(h.chunks) > 0 {
		clear(h.chunks[0])
		*free = append(*free, h.chunks[0])
		h.chunks[0] = nil
		h.chunks = h.chunks[1:]
		h.head -= histLen
	}
}

// contrib holds the latest HB release snapshot of one thread's closed
// sections that accessed a given variable under a given lock. The
// snapshots of one (lock, variable, thread) triple form a pointwise-
// increasing chain (a thread's releases of one lock are totally
// ordered by HB), so the newest snapshot subsumes every earlier one
// and replacement is exactly the join the rule needs. Keeping
// contributions per thread lets an accessor skip its own (rule a is
// between different threads); the list stays tiny in practice — it has
// one entry per thread that ever guarded the variable with the lock.
type contrib[S any] struct {
	t vt.TID
	s S
}

// varSummary is the rule-(a) state for one (lock, variable) pair.
type varSummary[S any] struct {
	reads  []contrib[S]
	writes []contrib[S]
}

// lockState is the per-lock WCP bookkeeping.
type lockState[W, S any] struct {
	w      W // weak clock of the last release (transport)
	wSet   bool
	hist   histBuf[S] // closed sections not yet compacted, in release (= trace) order
	cursor []int      // per-thread scan position into hist (rule b)
	// spos caches, per thread, the (t, acqLT) of the history entry the
	// thread's cursor is parked on. A rule-(b)-quiet scan re-examines
	// the same blocking entry at every release, and that entry may sit
	// tens of thousands of positions back in a cold history chunk; the
	// cache keeps the repeat check inside the lock's own state. idx is
	// the cached cursor position plus one (0 = nothing cached);
	// compaction rebases it alongside the cursors.
	spos []scanPos
	// Top two cursor positions, maintained incrementally as cursors
	// advance (bumpCursor) so compaction's droppability check needs no
	// per-release scan over the thread space: cmax1 ≥ cmax2, ctmax is
	// the thread holding cmax1 (None while all cursors sit at zero).
	cmax1, cmax2 int
	ctmax        vt.TID
	sums         map[int32]*varSummary[S]
	// holders counts threads currently inside a critical section of
	// this lock. The aging sweep skips held locks: a holder joined an
	// older publication of ls.w at its acquire, so domination by the
	// current publication does not yet make its future rule-(a)
	// absorbs no-ops. Recomputed from thread state on restore.
	holders int
	// Retained-state accounting: peak is the high-water mark of
	// len(hist); dropped counts entries reclaimed by compaction.
	peak    int
	dropped uint64
}

// scanPos is one thread's cached rule-(b) scan position: the head
// fields of the history entry at cursor position idx-1. Entries are
// immutable once pushed, so the cache can only go stale by renumbering
// (compaction), which rebases or invalidates it.
type scanPos struct {
	idx int32 // cached cursor position + 1; 0 = invalid
	t   vt.TID
	lt  vt.Time // the entry's acqLT
}

// bumpCursor folds thread t's advanced cursor into the incrementally
// maintained top-two positions. Cursors only grow between compactions,
// so each case matches a full recomputation: when the maximum's own
// cursor advances the runner-up set is untouched, and when another
// thread overtakes, the old maximum is exactly the new runner-up
// (every third thread was already at or below it). On a tie the two
// maxima are equal and the droppability check no longer consults
// ctmax, so which thread holds it is immaterial.
func (ls *lockState[W, S]) bumpCursor(t vt.TID) {
	c := ls.cursor[t]
	switch {
	case t == ls.ctmax:
		ls.cmax1 = c
	case c > ls.cmax1:
		ls.cmax2 = ls.cmax1
		ls.cmax1, ls.ctmax = c, t
	case c > ls.cmax2:
		ls.cmax2 = c
	}
}

// openCS is one currently held lock of a thread.
type openCS struct {
	lock    int32
	acqLT   vt.Time
	read    map[int32]struct{}
	written map[int32]struct{}
}

// threadState is the per-thread WCP bookkeeping.
type threadState[W any] struct {
	w    W        // pure WCP knowledge; own entry NOT the local time
	held []openCS // open critical sections, in acquire order
}

// accessState is the per-variable race-check history (FastTrack-style
// epochs, with the WCP ordering predicate).
type accessState struct {
	w      vt.Epoch  // last write
	r      vt.Epoch  // last read, while reads are totally ordered
	shared vt.Vector // per-thread last reads, once reads were concurrent
}

// SemanticsOf is the WCP plugin for the shared engine runtime, generic
// over both the strong-clock backbone C and the weak-clock transport
// (W, S, F — see vt.WeakClock and vt.SnapStore). It implements the
// Read/Write hooks plus the LockSemantics and ThreadSemantics
// extensions. Use the Semantics (sparse transport) or FlatSemantics
// (flat baseline) instantiations.
type SemanticsOf[C vt.Clock[C], W vt.WeakClock[W, S], S any, F vt.SnapStore[W, S]] struct {
	store   F
	threads []threadState[W]
	locks   []lockState[W, S]
	vars    []accessState
	k       int // thread-count high-water mark

	// History compaction (see "Memory" in the package doc): compact
	// gates the rule-(b) prefix drop; dropped snapshot storage recycles
	// through the store, and the counters feed MemStats.
	compact      bool
	liveHist     int    // history entries currently retained, all locks
	peakLockHist int    // max length any single lock's history reached
	dropped      uint64 // entries reclaimed by compaction, all locks

	// histFree recycles vacated history chunks across all locks: on
	// hot-lock workloads compaction vacates chunks at the same rate
	// pushes consume them, so the steady state allocates none.
	histFree [][]csEntry[S]

	// Rule-(a) summary aging (SetSummaryCap): sumCap bounds the live
	// contribution count across all locks (0 = unbounded); sumLive
	// tracks it incrementally; sumEvictions counts dropped
	// contributions; sumSweepAt is the hysteresis threshold — the next
	// sweep runs once sumLive reaches it, so a sweep that frees little
	// is not immediately re-run on every release. sumSweepAt and
	// sumEvictions are checkpointed (sweep timing is observable through
	// MemStats, which crash equivalence pins); sumLive is recomputed on
	// restore.
	sumCap       int
	sumLive      int
	sumEvictions uint64
	sumSweepAt   int
}

// Semantics is SemanticsOf with the default sparse weak-clock
// transport.
type Semantics[C vt.Clock[C]] = SemanticsOf[C, *vt.Sparse, vt.SparseSnap, *vt.SparseStore]

// FlatSemantics is SemanticsOf with the flat-vector weak-clock
// transport (the pre-sparse baseline, kept for differential testing
// and benchmarking).
type FlatSemantics[C vt.Clock[C]] = SemanticsOf[C, *vt.FlatWeak, vt.Vector, *vt.FlatStore]

// NewSemantics returns fresh WCP semantics (one per engine run) on the
// sparse weak-clock transport. History compaction is enabled;
// SetCompaction(false) turns it off for memory measurements.
func NewSemantics[C vt.Clock[C]]() *Semantics[C] {
	return &Semantics[C]{store: vt.NewSparseStore(), compact: true}
}

// NewSemanticsFlat is NewSemantics on the flat-vector weak-clock
// transport.
func NewSemanticsFlat[C vt.Clock[C]]() *FlatSemantics[C] {
	return &FlatSemantics[C]{store: vt.NewFlatStore(), compact: true}
}

// SetCompaction enables or disables rule-(b) history compaction
// (enabled by default). Disabling exists for the memory benchmarks and
// soak tests that measure the pre-compaction growth; on well-formed
// traces the analysis results are identical either way — compaction
// only drops entries whose absorption would be a no-op.
func (s *SemanticsOf[C, W, S, F]) SetCompaction(on bool) { s.compact = on }

// Interface conformance (the runtime detects the extensions), for both
// transports.
var (
	_ engine.LockSemantics[*noClock]   = (*Semantics[*noClock])(nil)
	_ engine.ThreadSemantics[*noClock] = (*Semantics[*noClock])(nil)
	_ engine.MemReporter               = (*Semantics[*noClock])(nil)
	_ engine.LockSemantics[*noClock]   = (*FlatSemantics[*noClock])(nil)
	_ engine.ThreadSemantics[*noClock] = (*FlatSemantics[*noClock])(nil)
	_ engine.MemReporter               = (*FlatSemantics[*noClock])(nil)
)

// thread returns thread t's state, growing the thread space.
func (s *SemanticsOf[C, W, S, F]) thread(t vt.TID) *threadState[W] {
	if int(t) >= len(s.threads) {
		old := len(s.threads)
		s.threads = vt.GrowSlice(s.threads, int(t)+1)
		for i := old; i < len(s.threads); i++ {
			s.threads[i].w = s.store.NewW()
		}
	}
	if int(t) >= s.k {
		s.k = int(t) + 1
	}
	return &s.threads[t]
}

// lockOf returns lock l's state, growing the lock space.
func (s *SemanticsOf[C, W, S, F]) lockOf(l int32) *lockState[W, S] {
	if int(l) >= len(s.locks) {
		old := len(s.locks)
		s.locks = vt.GrowSlice(s.locks, int(l)+1)
		for i := old; i < len(s.locks); i++ {
			s.locks[i].w = s.store.NewW()
			s.locks[i].ctmax = vt.None
		}
	}
	return &s.locks[l]
}

// varOf returns variable x's race-check history, growing the space.
func (s *SemanticsOf[C, W, S, F]) varOf(x int32) *accessState {
	s.vars = vt.GrowSlice(s.vars, int(x)+1)
	return &s.vars[x]
}

// ordered reports whether the event identified by epoch e is ordered
// before thread t's current event under WCP ∪ thread-order: same
// thread (trace order within a thread), or within t's weak clock.
func (s *SemanticsOf[C, W, S, F]) ordered(e vt.Epoch, t vt.TID, w W) bool {
	return e.T == t || e.Clk <= w.Get(e.T)
}

// joinSummaries applies rule (a) for an access of x by t: the release
// snapshot of every earlier conflicting same-lock section of another
// thread joins the weak clock. Writes conflict with everything;
// reads only with writes.
func (s *SemanticsOf[C, W, S, F]) joinSummaries(ts *threadState[W], t vt.TID, x int32, isWrite bool) {
	for i := range ts.held {
		ls := s.lockOf(ts.held[i].lock)
		sum := ls.sums[x]
		if sum == nil {
			continue
		}
		for j := range sum.writes {
			if sum.writes[j].t != t {
				ts.w.Absorb(&sum.writes[j].s)
			}
		}
		if isWrite {
			for j := range sum.reads {
				if sum.reads[j].t != t {
					ts.w.Absorb(&sum.reads[j].s)
				}
			}
		}
	}
}

// record notes the access in every open section of the thread.
func record[W any](ts *threadState[W], x int32, isWrite bool) {
	for i := range ts.held {
		cs := &ts.held[i]
		if isWrite {
			if cs.written == nil {
				cs.written = make(map[int32]struct{})
			}
			cs.written[x] = struct{}{}
		} else {
			if cs.read == nil {
				cs.read = make(map[int32]struct{})
			}
			cs.read[x] = struct{}{}
		}
	}
}

// Read implements engine.Semantics.
func (s *SemanticsOf[C, W, S, F]) Read(rt *engine.Runtime[C], t vt.TID, x int32, ct C) {
	ts := s.thread(t)
	s.joinSummaries(ts, t, x, false)
	vs := s.varOf(x)
	now := vt.Epoch{T: t, Clk: ct.Get(t)}
	if acc := rt.Analysis(); acc != nil {
		if !vs.w.Zero() && !s.ordered(vs.w, t, ts.w) {
			acc.Report(analysis.WriteRead, x, vs.w, now)
		}
	}
	// Read metadata: a single epoch while reads are totally ordered,
	// promoted to a per-thread vector on the first concurrent pair —
	// the same adaptive scheme as the HB/SHB detector, under the WCP
	// ordering predicate.
	if vs.shared != nil {
		if int(t) >= len(vs.shared) {
			vs.shared = vt.GrowSlice(vs.shared, s.k)
		}
		vs.shared[t] = now.Clk
	} else if vs.r.Zero() || s.ordered(vs.r, t, ts.w) {
		vs.r = now
	} else {
		n := s.k
		if int(vs.r.T) >= n {
			n = int(vs.r.T) + 1
		}
		vs.shared = vt.NewVector(n)
		vs.shared[vs.r.T] = vs.r.Clk
		vs.shared[t] = now.Clk
		vs.r = vt.Epoch{}
	}
	record(ts, x, false)
}

// Write implements engine.Semantics.
func (s *SemanticsOf[C, W, S, F]) Write(rt *engine.Runtime[C], t vt.TID, x int32, ct C) {
	ts := s.thread(t)
	s.joinSummaries(ts, t, x, true)
	vs := s.varOf(x)
	now := vt.Epoch{T: t, Clk: ct.Get(t)}
	if acc := rt.Analysis(); acc != nil {
		if !vs.w.Zero() && !s.ordered(vs.w, t, ts.w) {
			acc.Report(analysis.WriteWrite, x, vs.w, now)
		}
		if vs.shared != nil {
			for u, rc := range vs.shared {
				if rc > 0 && !s.ordered(vt.Epoch{T: vt.TID(u), Clk: rc}, t, ts.w) {
					acc.Report(analysis.ReadWrite, x, vt.Epoch{T: vt.TID(u), Clk: rc}, now)
				}
			}
		} else if !vs.r.Zero() && !s.ordered(vs.r, t, ts.w) {
			acc.Report(analysis.ReadWrite, x, vs.r, now)
		}
	}
	// A read that later races an access would also race this write (or
	// the write itself races), so the read metadata resets — the same
	// variable-level completeness argument as the HB detector, which
	// only needs the order to be transitively closed over thread order.
	vs.shared = nil
	vs.r = vt.Epoch{}
	vs.w = now
	record(ts, x, true)
}

// Acquire implements engine.LockSemantics: rule-(c) transport across
// the release→acquire HB edge, then open the section. A reacquire of a
// lock the thread already holds (malformed input) keeps the original
// section.
func (s *SemanticsOf[C, W, S, F]) Acquire(rt *engine.Runtime[C], t vt.TID, l int32, ct C) {
	ts := s.thread(t)
	ls := s.lockOf(l)
	if ls.wSet {
		ts.w.Join(ls.w)
	}
	for i := range ts.held {
		if ts.held[i].lock == l {
			return
		}
	}
	ts.held = append(ts.held, openCS{lock: l, acqLT: ct.Get(t)})
	ls.holders++
}

// Release implements engine.LockSemantics: rule (b) against the lock's
// section history, then close the section (history entry + rule-(a)
// summaries), then publish the weak clock. A release of a lock the
// thread does not hold (malformed input) closes nothing but still
// publishes, mirroring the runtime's uniform lock-clock overwrite.
func (s *SemanticsOf[C, W, S, F]) Release(rt *engine.Runtime[C], t vt.TID, l int32, ct C) {
	ts := s.thread(t)
	ls := s.lockOf(l)

	held := -1
	for i := range ts.held {
		if ts.held[i].lock == l {
			held = i
		}
	}

	if held >= 0 {
		// Rule (b): pass every earlier foreign section whose acquire is
		// already WCP-before this release. The FIFO scan may stop at
		// the first miss: a later foreign entry's acquire is HB-after
		// every earlier entry's release (same lock), so by rule (c) it
		// can only be WCP-before this release if the earlier ones are.
		// Since the passed snapshots are pointwise increasing along the
		// history (each releaser joined its predecessor's clock at the
		// acquire), the last triggered snapshot subsumes the others:
		// triggers are checked against the weak clock joined with that
		// pending snapshot, and only it is absorbed after the scan.
		if int(t) >= len(ls.cursor) {
			ls.cursor = vt.GrowSlice(ls.cursor, s.k)
			ls.spos = vt.GrowSlice(ls.spos, s.k)
		}
		last := -1
		start := ls.cursor[t]
		i := start
		sp := &ls.spos[t]
		for i < ls.hist.len() {
			// The head fields of the entry under scan, via the cache
			// when the cursor is parked where it was last time (the
			// common case on rule-(b)-quiet traces, where the blocking
			// entry lives in a long-cold history chunk).
			var et vt.TID
			var elt vt.Time
			if int(sp.idx) == i+1 {
				et, elt = sp.t, sp.lt
			} else {
				e := ls.hist.at(i)
				et, elt = e.t, e.acqLT
				sp.idx, sp.t, sp.lt = int32(i+1), et, elt
			}
			if et == t {
				i++
				continue
			}
			trig := ts.w.Get(et) >= elt
			if !trig && last >= 0 {
				trig = s.store.SnapGet(&ls.hist.at(last).rel, et) >= elt
			}
			if !trig {
				break
			}
			last = i
			i++
		}
		ls.cursor[t] = i
		if last >= 0 {
			ts.w.Absorb(&ls.hist.at(last).rel)
		}
		if i != start {
			ls.bumpCursor(t)
		}

		cs := ts.held[held]
		ls.holders--
		if held == len(ts.held)-1 {
			// LIFO release (the overwhelmingly common discipline): a
			// plain truncation, skipping append's typed-copy machinery
			// and its per-element write barriers for the map fields.
			ts.held = ts.held[:held]
		} else {
			ts.held = append(ts.held[:held], ts.held[held+1:]...)
		}
		// The HB snapshot of this release: everything ≤HB here rides
		// along any rule-(a)/(b) edge out of this section (rule c).
		// The snapshot is retained by the history entry; the store
		// recycles storage from compacted entries and shares whatever
		// did not change since the thread's previous release.
		// Build the snapshot directly in the appended entry: a local
		// would have its address taken by addContrib below and escape,
		// costing a heap allocation per release. The store reads the
		// clock's flat mirror in place — no scratch vector to zero and
		// fill per release.
		rel := &ls.hist.push(t, cs.acqLT, &s.histFree).rel
		*rel = s.store.Snapshot(t, ct.VectorView(), ct.Rev(), rt.Threads())
		s.liveHist++
		if ls.hist.len() > ls.peak {
			ls.peak = ls.hist.len()
			if ls.peak > s.peakLockHist {
				s.peakLockHist = ls.peak
			}
		}
		// The nil checks matter: ranging over a nil map still enters the
		// runtime's iterator setup, a measurable per-release cost on
		// pure-sync workloads where sections never touch a variable.
		if len(cs.read)+len(cs.written) > 0 && ls.sums == nil {
			ls.sums = make(map[int32]*varSummary[S])
		}
		if cs.read != nil {
			for x := range cs.read {
				sum := ls.sums[x]
				if sum == nil {
					sum = &varSummary[S]{}
					ls.sums[x] = sum
				}
				sum.reads = s.addContrib(sum.reads, t, rel)
			}
		}
		if cs.written != nil {
			for x := range cs.written {
				sum := ls.sums[x]
				if sum == nil {
					sum = &varSummary[S]{}
					ls.sums[x] = sum
				}
				sum.writes = s.addContrib(sum.writes, t, rel)
			}
		}
		// Reclaim the history prefix this scan (and earlier ones) has
		// made dead. The entry appended above is never dropped here: no
		// foreign cursor can be past it yet. With every cursor still at
		// zero nothing can be droppable (an entry dies only once a
		// foreign cursor is past it), so the call is skipped outright on
		// rule-(b)-quiet locks.
		if s.compact && ls.cmax1 > 0 {
			s.compactLock(ls)
		}
	}

	// Transport: the weak knowledge at this release is what a later
	// acquirer inherits across the HB edge (rule c). The release's own
	// epoch is deliberately NOT included — rel→acq is an HB edge, not a
	// WCP one.
	ls.w.CopyFrom(ts.w)
	ls.wSet = true

	// Rule-(a) summary aging: once the live contribution count exceeds
	// the cap (and the hysteresis threshold — a sweep that freed little
	// must not re-run on every release), drop every contribution the
	// locks' published weak clocks have made redundant.
	if s.sumCap > 0 && s.sumLive > s.sumCap && s.sumLive >= s.sumSweepAt {
		s.sweepSummaries()
		s.sumSweepAt = s.sumLive + s.sumCap>>3 + 1
	}
}

// SetSummaryCap bounds the rule-(a) summary state: once more than n
// contribution snapshots are live across all locks, releases run an
// aging sweep that drops every contribution already dominated by its
// lock's published weak clock (0, the default, disables aging). The
// cap is soft — contributions that are not yet provably redundant are
// never dropped, so a workload whose irreducible summary state exceeds
// n keeps it all — and dropping never changes analysis results (see
// sweepSummaries).
func (s *SemanticsOf[C, W, S, F]) SetSummaryCap(n int) { s.sumCap = n }

// sweepSummaries drops every rule-(a) contribution snapshot that its
// lock's current published weak clock dominates pointwise.
//
// Soundness: a contribution of (ℓ, x, t) is only ever absorbed, at a
// later access under ℓ, into the accessor's weak clock — and the
// accessor's acquire of ℓ already joined ℓ's then-current publication
// (rule c), which is at or above today's (publications along a lock's
// release chain are monotone: every releaser first joined the previous
// publication at its acquire). So if today's publication dominates the
// snapshot, every future absorb of it is a no-op and dropping it
// changes nothing. Locks currently held are skipped: the holder
// joined an *older* publication at its acquire, so the monotone-chain
// argument does not yet cover it; its release publishes first, and
// the contribution becomes sweepable afterwards. The sweep visits
// locks in id order and dropping is order-independent, so the result
// is deterministic despite map iteration inside a lock.
func (s *SemanticsOf[C, W, S, F]) sweepSummaries() {
	for l := range s.locks {
		ls := &s.locks[l]
		if ls.holders > 0 || !ls.wSet || len(ls.sums) == 0 {
			continue
		}
		for x, sum := range ls.sums {
			sum.reads = s.dropDominated(sum.reads, ls)
			sum.writes = s.dropDominated(sum.writes, ls)
			if len(sum.reads)+len(sum.writes) == 0 {
				delete(ls.sums, x)
			}
		}
		if len(ls.sums) == 0 {
			ls.sums = nil
		}
	}
}

// dropDominated filters one contribution list in place, dropping
// snapshots dominated by the lock's published weak clock. Vacated
// slots are zeroed: a snapshot is refcounted storage, and a stale
// copy left in the tail would be double-released by a later
// addContrib assignment into the same slot.
func (s *SemanticsOf[C, W, S, F]) dropDominated(cs []contrib[S], ls *lockState[W, S]) []contrib[S] {
	kept := 0
	for i := range cs {
		if s.snapDominated(&cs[i].s, ls) {
			s.store.Drop(&cs[i].s)
			s.sumLive--
			s.sumEvictions++
			continue
		}
		if kept != i {
			cs[kept] = cs[i]
			cs[i] = contrib[S]{}
		}
		kept++
	}
	return cs[:kept]
}

// snapDominated reports whether snap ⊑ the lock's published weak
// clock, pointwise over the thread space. SnapGet reads the
// snapshot's own slot from its out-of-band epoch, so the check is
// exact.
func (s *SemanticsOf[C, W, S, F]) snapDominated(snap *S, ls *lockState[W, S]) bool {
	for u := 0; u < s.k; u++ {
		if s.store.SnapGet(snap, vt.TID(u)) > ls.w.Get(vt.TID(u)) {
			return false
		}
	}
	return true
}

// addContrib installs thread t's newest release snapshot as its
// contribution (replacement is the join: the chain is monotone, see
// contrib).
func (s *SemanticsOf[C, W, S, F]) addContrib(cs []contrib[S], t vt.TID, snap *S) []contrib[S] {
	for i := range cs {
		if cs[i].t == t {
			s.store.Assign(&cs[i].s, snap)
			return cs
		}
	}
	cs = append(cs, contrib[S]{t: t})
	s.store.Assign(&cs[len(cs)-1].s, snap)
	s.sumLive++
	return cs
}

// compactLock drops the longest history prefix in which every entry
// has been absorbed by a thread other than its releaser, recycling the
// freed snapshot storage through the store.
//
// Soundness (well-formed traces; see also the package doc): once a
// foreign thread's cursor is past an entry, that thread joined the
// entry's snapshot into its weak clock during the rule-(b) scan of one
// of its releases of ℓ (via the subsuming last pending snapshot) and
// published the enlarged clock as ℓ's weak clock in the same Release
// step. Publications along ℓ's release chain are monotone — the lock
// is held exclusively, so every publisher first joined the previous
// publication at its acquire. Any thread that might still scan the
// entry does so at a later release of ℓ, whose matching acquire
// follows the absorbing release in ℓ's chain and therefore already
// inherited the snapshot: skipping the entry changes nothing. The gate
// is deliberately a *foreign* cursor — the releaser's own cursor skips
// its entries without absorbing them, and its published weak clock
// never includes its own release snapshots, so an owner-counting gate
// would drop entries still needed by threads that first reach ℓ (or
// first appear) later.
//
// Per entry the check is O(1) given the top two cursor positions: an
// entry at index i has a foreign cursor beyond it iff i < max2 (two
// distinct threads are past it — at least one is foreign) or
// i < max1 with the entry not owned by the unique maximum's thread.
// The top two are maintained incrementally (bumpCursor), so a release
// whose scan went nowhere pays O(1) here, not O(threads).
func (s *SemanticsOf[C, W, S, F]) compactLock(ls *lockState[W, S]) {
	max1, max2, tmax := ls.cmax1, ls.cmax2, ls.ctmax
	drop := 0
	for drop < ls.hist.len() && (drop < max2 || (drop < max1 && ls.hist.at(drop).t != tmax)) {
		drop++
	}
	if drop == 0 {
		return
	}
	for i := 0; i < drop; i++ {
		s.store.Drop(&ls.hist.at(i).rel)
	}
	ls.hist.dropFront(drop, &s.histFree)
	for t := range ls.cursor {
		if ls.cursor[t] > drop {
			ls.cursor[t] -= drop
		} else {
			ls.cursor[t] = 0
		}
	}
	// Rebase the scan caches with the same shift; a cache pointing into
	// the dropped prefix is invalidated (its cursor was clamped to 0,
	// where a live entry may now sit).
	for t := range ls.spos {
		if int(ls.spos[t].idx) > drop {
			ls.spos[t].idx -= int32(drop)
		} else {
			ls.spos[t].idx = 0
		}
	}
	// The shift is monotone and uniform, so the top-two invariant
	// survives clamping: order among cursors is preserved, and when
	// cmax1 collapses to zero the stale ctmax is harmless (a zero
	// maximum never lets the drop loop consult it).
	if ls.cmax1 > drop {
		ls.cmax1 -= drop
	} else {
		ls.cmax1 = 0
	}
	if ls.cmax2 > drop {
		ls.cmax2 -= drop
	} else {
		ls.cmax2 = 0
	}
	ls.dropped += uint64(drop)
	s.dropped += uint64(drop)
	s.liveHist -= drop
}

// Per-object constants for the approximate retained-bytes accounting:
// slice header + fixed fields of a csEntry, and of a contrib (the
// snapshot payload is the store's SnapHeap).
const (
	csEntryBytes = 40
	contribBytes = 32
)

// lockStat computes one lock's retained-history statistics.
func (s *SemanticsOf[C, W, S, F]) lockStat(l int32) LockHistStat {
	ls := &s.locks[l]
	st := LockHistStat{Lock: l, Live: ls.hist.len(), Peak: ls.peak, Dropped: ls.dropped}
	for i := 0; i < ls.hist.len(); i++ {
		st.RetainedBytes += s.store.SnapHeap(&ls.hist.at(i).rel) + csEntryBytes
	}
	st.RetainedBytes += uint64(len(ls.cursor))*8 + ls.w.Heap()
	for _, sum := range ls.sums {
		for i := range sum.reads {
			st.Summaries++
			st.RetainedBytes += s.store.SnapHeap(&sum.reads[i].s) + contribBytes
		}
		for i := range sum.writes {
			st.Summaries++
			st.RetainedBytes += s.store.SnapHeap(&sum.writes[i].s) + contribBytes
		}
	}
	return st
}

// LockHistStat summarizes one lock's retained rule-(b) history and
// rule-(a) summaries (see cmd/traceinfo -wcp).
type LockHistStat struct {
	Lock      int32
	Live      int    // history entries currently retained
	Peak      int    // high-water mark of the history length
	Dropped   uint64 // entries reclaimed by compaction
	Summaries int    // rule-(a) contribution snapshots retained
	// RetainedBytes approximates the bytes pinned by the above (8 per
	// vector entry, shared segments attributed fractionally, plus
	// small per-object constants).
	RetainedBytes uint64
}

// LockHistStats reports per-lock retained-history statistics for every
// lock that retained or reclaimed any state, in lock id order.
func (s *SemanticsOf[C, W, S, F]) LockHistStats() []LockHistStat {
	var out []LockHistStat
	for l := range s.locks {
		st := s.lockStat(int32(l))
		if st.Live == 0 && st.Dropped == 0 && st.Summaries == 0 {
			continue
		}
		out = append(out, st)
	}
	return out
}

// MemStats implements engine.MemReporter: the retained critical-
// section state, aggregated over all locks. Every number derives from
// the plugin's and store's own state, so it is identical across clock
// backbones by construction (the soak test asserts this).
func (s *SemanticsOf[C, W, S, F]) MemStats() engine.MemStats {
	ms := engine.MemStats{
		HistEntries:      s.liveHist,
		PeakLockHist:     s.peakLockHist,
		DroppedEntries:   s.dropped,
		FreeVectors:      s.store.FreeCount(),
		SummaryEvictions: s.sumEvictions,
	}
	// Deliberately NOT the sum of lockStat: that walks every retained
	// history entry, which on rule-(b)-quiet workloads is the bulk of
	// the trace — a Θ(events) tax on every stats snapshot. The store
	// answers the aggregate snapshot payload in O(1) (LiveHeap), so
	// only the per-lock fixed state is walked here; lockStat keeps the
	// exact per-lock breakdown for traceinfo's offline reporting.
	for l := range s.locks {
		ls := &s.locks[l]
		for _, sum := range ls.sums {
			ms.SummaryVectors += len(sum.reads) + len(sum.writes)
		}
		ms.RetainedBytes += uint64(len(ls.cursor))*8 + ls.w.Heap()
	}
	ms.RetainedBytes += uint64(s.liveHist)*csEntryBytes + uint64(ms.SummaryVectors)*contribBytes
	ms.RetainedBytes += uint64(len(s.histFree)) * histLen * csEntryBytes // parked history chunks
	ms.RetainedBytes += s.store.LiveHeap() + s.store.Heap()
	return ms
}

// Fork implements engine.ThreadSemantics: the child's weak clock
// inherits the parent's (rule c across the fork edge).
func (s *SemanticsOf[C, W, S, F]) Fork(rt *engine.Runtime[C], t vt.TID, u vt.TID, ct C) {
	w := s.thread(t).w
	if w.Len() > 0 {
		s.thread(u).w.Join(w)
	}
}

// Join implements engine.ThreadSemantics: the parent absorbs the
// joined thread's weak clock (rule c across the join edge).
func (s *SemanticsOf[C, W, S, F]) Join(rt *engine.Runtime[C], t vt.TID, u vt.TID, ct C) {
	w := s.thread(u).w
	if w.Len() > 0 {
		s.thread(t).w.Join(w)
	}
}

// WeakClock exposes thread t's pure WCP knowledge (for tests and
// timestamp comparison against the oracle), materialized into a fresh
// vector.
func (s *SemanticsOf[C, W, S, F]) WeakClock(t vt.TID) vt.Vector {
	if int(t) >= len(s.threads) {
		return nil
	}
	w := s.threads[t].w
	return w.Vector(vt.NewVector(w.Len()))
}

// Timestamp writes thread t's WCP ∪ thread-order timestamp — the weak
// clock with the own entry raised to the local time lt — into dst and
// returns it. Like the runtime's Timestamp (whose dst feeds
// Clock.Vector), dst is a scratch destination, not a truncation bound:
// when it is shorter than the weak clock (or cannot hold t's own
// entry) it is grown, so callers must use the returned vector.
func (s *SemanticsOf[C, W, S, F]) Timestamp(t vt.TID, lt vt.Time, dst vt.Vector) vt.Vector {
	need := int(t) + 1
	known := int(t) < len(s.threads)
	if known {
		if n := s.threads[t].w.Len(); n > need {
			need = n
		}
	}
	if len(dst) < need {
		dst = vt.GrowSlice(dst, need)
	}
	// Zero everything (a recycled dst, or the capacity tail GrowSlice
	// exposed, may hold stale entries), then lay down the weak clock.
	for i := range dst {
		dst[i] = 0
	}
	if known {
		s.threads[t].w.Vector(dst)
	}
	dst[t] = lt
	return dst
}

// noClock is a minimal vt.Clock used only for the compile-time
// interface-conformance assertions above.
type noClock struct{}

func (*noClock) Init(vt.TID)                     {}
func (*noClock) Get(vt.TID) vt.Time              { return 0 }
func (*noClock) Inc(vt.TID, vt.Time)             {}
func (*noClock) Grow(int)                        {}
func (*noClock) ReleaseSlot(vt.TID)              {}
func (*noClock) Join(*noClock)                   {}
func (*noClock) MonotoneCopy(*noClock)           {}
func (*noClock) CopyCheckMonotone(*noClock) bool { return true }
func (*noClock) Vector(dst vt.Vector) vt.Vector  { return dst }
func (*noClock) VectorView() []vt.Time           { return nil }
func (*noClock) Rev() uint64                     { return 0 }
