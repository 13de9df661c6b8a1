// Package treeclock implements the tree clock data structure and
// tree-clock-based partial-order analyses for concurrent executions,
// reproducing "A Tree Clock Data Structure for Causal Orderings in
// Concurrent Executions" (Mathur, Pavlogiannis, Tunç, Viswanathan —
// ASPLOS 2022).
//
// A tree clock represents a vector timestamp — one logical time per
// thread — like a classic vector clock, but stores it hierarchically:
// the tree records through which thread each time was learned, so join
// and copy operations touch only the entries that can actually change
// instead of all k of them. For the happens-before (HB) partial order,
// tree clocks are vt-optimal: the total data-structure time is within a
// constant of the number of timestamp entries any implementation must
// update (the paper's Theorem 1).
//
// # Architecture
//
// All partial-order engines are one shared streaming runtime
// (internal/engine) plus a small per-order Semantics plugin:
//
//   - The runtime owns the sync scaffolding common to every order:
//     per-thread and per-lock clocks, the Acquire/Release/Fork/Join
//     dispatch, the per-event local-time increment, event counting,
//     timestamps, and lazy allocation of state on first sight of an
//     identifier.
//   - A Semantics implementation (the plugin interface of
//     internal/engine) contributes only the Read and Write hooks and any
//     per-variable state the order needs: HB feeds the race detector,
//     SHB adds last-write clocks, MAZ adds the read-set bookkeeping of
//     Algorithm 5.
//   - Orders that depend on critical-section structure opt into the
//     engine's extension hooks: LockSemantics (Acquire/Release) and
//     ThreadSemantics (Fork/Join), detected once at construction and
//     invoked after the runtime's uniform handling. WCP — the
//     weakly-causally-precedes weak order of predictive race
//     detection, internal/wcp — uses them to maintain per-lock
//     critical-section histories and per-thread weak clocks; plain
//     Read/Write plugins are dispatched exactly as before.
//   - Clocks are dynamic: the vt.Clock contract includes Grow, and both
//     TreeClock and VectorClock extend their thread capacity on demand
//     (see the Grow contract in internal/core), so no engine needs the
//     trace's thread/lock/variable counts up front.
//
// # Sharded parallel analysis
//
// WithWorkers(n) runs the engine behind a worker group of n replicas
// (internal/parallel). One worker is the decode/analysis overlap
// alone: one unsharded replica whose state, result and checkpoints
// equal the inline run's. Two or more shard the analysis, up to 256
// (each replica replays the whole stream, so more add only memory).
// No option means the inline run, except that RunStream picks one
// worker for text input when GOMAXPROCS > 1. The sharding
// decomposition follows from what is and is not independent in a
// partial-order analysis:
//
//   - Per-variable analysis state is independent across variables — an
//     epoch check for x never reads the state of y — so variables
//     partition across workers by stable hash, and each variable's
//     race checks, access history and read vectors live on exactly one
//     worker.
//   - Clock evolution is not independent: sync events thread ordering
//     through every clock, and the stronger orders entangle even
//     accesses with it (SHB joins each read with the variable's last
//     write, MAZ with its read set, WCP with its release summaries).
//     Rather than serialize those effects through cross-worker
//     communication — a synchronization point per sync event — every
//     worker runs a complete engine replica over the complete stream.
//     The session's driver loop, acting as coordinator, sequences
//     batches into per-worker SPSC ring queues in trace order (each
//     batch is copied once into a pooled buffer that every worker
//     reads, and the last worker to finish returns it to the pool), so
//     each replica performs the identical, deterministic clock
//     evolution of the sequential engine, with no locks and no
//     cross-worker traffic on the hot path.
//
// Reports stay deterministic — byte-identical to the sequential run,
// pinned across the whole registry and generator suite by
// TestParallelMatchesSequential — because each pair is detected by
// exactly one worker (its variable's owner) using timestamps equal to
// the sequential run's, samples carry global trace positions and merge
// back in trace order (analysis.MergeAccumulators), and counts sum
// over disjoint shards. Timestamps and metadata come from any replica
// (all identical); StreamResult.Mem sums the replicas' retained state,
// which is the honest accounting of what sharding costs: clock
// scaffolding is replicated so that per-variable analysis — the
// dominant per-event cost on access-heavy workloads — can be
// distributed. Speedup is therefore largest for the detector-backed
// orders (HB, SHB) and bounded by the analysis share of the per-event
// cost in general; the multicore CI lane records the sweep
// (cmd/tcbench -experiment parallel, BENCH_parallel.json).
//
// Adding a new partial order is a three-step recipe: (1) write a
// Semantics plugin in a new internal package — Read/Write hooks plus
// whatever per-variable state the order needs, growing it on first
// sight of an identifier; implement LockSemantics/ThreadSemantics only
// if the order observes critical sections or thread structure.
// (2) Extend internal/oracle with a definition-level reference for the
// order and pin the plugin against it with step-by-step timestamp
// tests (the internal/hb and internal/wcp test files are templates);
// the registry-wide harnesses — TestStreamingMatchesMaterialized,
// TestClockVariantsByteIdentical, TestSuiteAgainstOracle — then cover
// it automatically. (3) Register "<order>-tree"/"<order>-vc" in the
// engine registry (engineRegistry and newStreamEngine in stream.go).
// The registry is the only way engines are built: RunStream, Session,
// the daemon, cmd/tcrace and cmd/tcbench all pick the order up from
// it.
//
// # Streaming analysis
//
// RunStream is the one-pass API built on that runtime: it feeds a
// trace from a plain io.Reader (text or binary format, see
// NewTraceScanner and NewBinaryTraceScanner) straight through an
// engine with no prior Meta and no materialization; RunStreamSource
// does the same from any EventSource — including the endless workload
// generators (GenerateHotLockStream, GenerateRotatingLocksStream,
// GenerateChurningVarsStream, capped with LimitEvents), so soak
// scenarios of unbounded length need no trace bytes at all. Both take
// StreamOption values; WithWorkers shards the analysis across worker
// replicas with byte-identical results (see "Sharded parallel
// analysis" above), and StreamBinary selects the binary input format.
// Engines are chosen by registry name — "hb-tree", "hb-vc", "shb-tree",
// "shb-vc", "maz-tree", "maz-vc", "wcp-tree", "wcp-vc" (see Engines
// and EngineInfos) — and the result carries the race summary, sample
// pairs, discovered metadata and final timestamps. A materialized
// Trace runs through the same path: RunStreamSource(name,
// NewTraceReplayer(tr)).
// The reader-fed and replayed paths are differentially tested to
// produce identical race reports and timestamps, the tree-clock and
// vector-clock variants of every order are pinned byte-identical, and
// each order's engine is compared event-by-event against a
// definition-level oracle (internal/oracle) over the whole generator
// suite.
//
// # Memory model
//
// On an unbounded stream, memory is proportional to the live
// identifier spaces (threads, locks, touched variables), never the
// trace length. For HB, SHB and MAZ that falls out of the clock state
// alone. WCP additionally keeps per-lock critical-section histories
// whose entries each pin a Θ(threads) snapshot; these are compacted —
// an entry is dropped as soon as a thread other than its releaser has
// absorbed it through WCP's rule (b), which is exactly when every
// possible later absorption becomes a no-op (internal/wcp documents
// the argument), and the freed snapshots are recycled. The retained
// history is then the unabsorbed tail: O(threads) entries on
// workloads whose critical sections conflict, growing only when the
// WCP definition itself still needs the entries. Engines with such
// inherently event-dependent state report it through the
// engine.MemReporter extension, surfaced as StreamResult.Mem — live
// and peak history lengths, compacted-entry counts and retained bytes
// — asserted by a 5M-event soak test and tracked by cmd/tcbench
// -experiment mem (BENCH_mem.json); cmd/traceinfo -wcp breaks the
// numbers down per lock.
//
// "Proportional to the live identifier spaces" is still unbounded when
// the spaces themselves churn: a month-long stream forks threads, then
// touches variables, then spells identifier names that are never seen
// again, and each leaves residue — a clock slot, a rule-(a) summary, an
// interner entry — that outlives its subject. Three opt-in caps bound
// those residues:
//
//   - WithSlotReclaim retires a thread's clock slot once the thread is
//     fully joined: external thread ids are remapped to internal slots
//     at dispatch, a retired slot's component is erased from the
//     legacy clock (vt.Clock.ReleaseSlot), and the slot is reissued to
//     a later fork only when the forking thread's clock already
//     dominates the slot's final legacy time — the gate that makes
//     reuse indistinguishable from a fresh slot. Clock width then tracks the peak number of
//     concurrently live threads, not the number of threads the trace
//     ever named. Race reports are unchanged except that reported
//     thread ids are slot numbers. The predictive engines are excluded
//     (WithSlotReclaim fails for wcp-*): rule-(a) summaries and
//     rule-(b) cursors keep per-thread state that must survive the
//     thread's join.
//   - WithSummaryCap(n) ages out WCP rule-(a) summaries whose
//     snapshots are dominated by the lock's latest published release
//     clock (see internal/wcp's package comment for the soundness
//     argument); live summaries plateau near n with reports identical
//     to the unbounded run's.
//   - WithInternCap(n) evicts the coldest interned identifier names
//     above n per space from the text scanner. A name seen again after
//     eviction becomes a fresh identity — sound for race detection
//     (the analysis never unifies accesses across the gap it would
//     otherwise have kept), but reported ids for such names differ
//     from an uncapped run; text input only.
//
// All three surface their accounting through StreamResult.Mem
// (ThreadSlots/RetiredSlots/ReusedSlots, SummaryEvictions,
// InternedNames/InternEvictions), are preserved across
// checkpoint/resume with byte-identical crash equivalence, and are
// measured by the mem experiment's churn section and the churn soak
// tests (churn_soak_test.go: a 50M-event fork churn holds clock
// capacity at 9 slots). cmd/tcrace exposes them as -reclaim-slots,
// -summary-cap and -intern-cap.
//
// # Weak clocks and why tree clocks don't apply
//
// WCP's per-thread state is a pair of clocks, and only one of them is
// a tree clock. The strong backbone — the thread's HB-ish clock that
// sync events join through — satisfies the tree-clock preconditions:
// every thread owns its entry, knowledge of a thread always flows
// from that thread's clock, and release-time copies are monotone
// (Lemma 2), so the hierarchical representation and its pruned
// traversals apply as in the paper. The weak clock does not. By
// definition, a thread's WCP clock excludes its own current critical
// sections: its own entry is deliberately stale, and what it learns
// about other threads arrives through release snapshots and rule-(b)
// absorption rather than whole-clock joins from the owning thread.
// That breaks the tree clock's central invariant — that a subtree
// rooted at u was learned through u and is therefore exactly u's past
// — so the pruning arguments (direct and indirect monotonicity) are
// unsound for weak time: a "not progressed" root no longer implies an
// unchanged subtree. The same observation motivates the sparse
// segment representation used instead (following the CSST line of
// work, Tunç et al.): weak clocks evolve by absorbing immutable
// release snapshots, so the profitable structure is not a
// learned-through tree but block-level sharing between a release and
// the releaser's previous release. internal/vt/weak.go defines the
// two-sided contract (WeakClock, SnapStore), internal/vt/sparse.go
// the copy-on-write segment-list implementation that the WCP engines
// use. The Θ(threads) flat-vector transport (vt.FlatWeak,
// wcp.NewSemanticsFlat) is not a registry engine: it stays as the
// test oracle the sparse one is pinned byte-identical to, and as the
// baseline of tcbench's ingest sweep ("weak": "flat" rows).
//
// # Batched ingestion
//
// Ingestion is batched end to end. The text scanner is a byte-level
// tokenizer over a reused read buffer — no per-line strings, identifier
// names copied only on first sight — that runs at zero allocations per
// event in steady state; every event source (both scanners, the
// validator, the in-memory TraceReplayer) also delivers events in bulk
// through BatchEventSource. Session.Run reads 512-event batches into
// one reused buffer, amortizing interface dispatch to once per batch
// (for a source without batch support, trace.ReadBatch gathers each
// batch one Next call at a time), and hands each batch to the same
// per-batch step Feed uses. Behind a worker group that step copies the
// batch into a pooled buffer for the workers, so the driver decodes
// (and validates) the next batch while they analyze this one:
// WithWorkers(1) is that overlap, and RunStream picks it on its own
// for text input when GOMAXPROCS > 1 (binary decode is too cheap to
// win the hand-off). Batches are consumed strictly in order, so every
// mode produces byte-identical race reports — a property pinned by
// differential tests across every registry engine. cmd/tcbench
// -experiment ingest measures the modes against each other and, with
// -json, emits a machine-readable BENCH_ingest.json report. For
// heavy-traffic ingestion, WithProgress(every, fn) reports the
// delivered event count and events/second rate from the per-batch
// step, pulled or pushed, inline or behind workers (tcrace -progress).
//
// # Checkpointing and crash equivalence
//
// Analysis state is checkpointable: WithCheckpoint(every, sink)
// serializes the complete engine state — clocks, detector and
// accumulator state, WCP histories, cursors and summaries including
// the refcounted sparse segment arenas, the interner tables, and the
// stream position — at the first batch boundary past every `every`
// events, and ResumeFrom(r) reconstructs it so the finished run's
// report is byte-identical to an uninterrupted one. The format
// (internal/ckpt) is length-prefixed, versioned and CRC-checked per
// section; a truncated, bit-flipped or mismatched checkpoint fails
// with an error wrapping ErrCorruptCheckpoint — never a panic — and a
// committed golden file pins the wire format against silent drift.
// Checkpoints are written whole (the sink receives only complete
// serializations; tcrace -checkpoint additionally writes
// temp-file-plus-rename, and commits only a fully written file), so a
// crash or a failed write mid-checkpoint leaves the previous
// checkpoint usable.
//
// The guarantee is proven by fault injection, not argued: the crash
// harness (trace.NewCrashSource) kills the analysis at batch
// boundaries throughout the trace, resumes from the last checkpoint,
// and requires byte-identical reports, timestamps and retained-state
// accounting versus the uninterrupted run — across all eight registry
// engines plus the flat weak-clock oracle, the sequential and sharded
// runtimes, and under the race detector. Behind a worker group a
// checkpoint is a barrier: the driver pauses every worker at the same
// trace position, serializes all replicas, and releases them. A
// checkpoint resumes into a run with the same replica count: the
// worker count of a sharded run, one otherwise, so a one-worker run
// and the inline run resume each other's checkpoints.
//
// Runs are also cancellable: WithContext(ctx) stops a session, pulled
// or pushed, at the next batch boundary when ctx is done (one check,
// before every batch, shared by both modes), returning the partial
// StreamResult (events ingested so far, retained-state accounting)
// alongside ctx.Err(); the worker group, if any, drains and exits, so
// no goroutines are left behind. cmd/tcrace
// surfaces all of it (-checkpoint, -checkpoint-every, -resume) with a
// documented exit-code contract: 0 clean, 1 races found, 2 usage or
// I/O error, 3 corrupt checkpoint, 4 remote session evicted.
//
// # Analysis as a service
//
// RunStream and RunStreamSource are thin wrappers over a first-class
// Session: Open(engine, opts...) constructs and validates the
// configuration in one place, Run(src) pulls a source through it,
// Feed(batch) pushes events incrementally, Snapshot(w) checkpoints
// mid-stream, Mem() reports retained-state accounting, and
// Result()/Close() seal the run. Run and Feed share one per-batch step
// (hand the batch to the replica or the worker group, advance the
// delivered count, take the cadence checkpoint) and one start and stop
// path, so sequential or sharded, pull or push, every run flows
// through this one core, and incremental feeding, mid-stream
// checkpointing, budget inspection and eviction/resume are library
// capabilities, not daemon-private forks.
//
// internal/daemon and cmd/tcraced build the multi-tenant service on
// top: a long-lived server multiplexing concurrent trace sessions
// over TCP or unix sockets. The wire protocol is length-prefixed
// binary framing (a uint32 length, a one-byte frame type, a payload
// that reuses the checkpoint codec for structured frames and the
// binary trace format's event encoding for event batches); the client
// opens a named session, streams event frames, and receives progress,
// the final result — or an eviction. Session lifecycle is built for
// restarts nobody notices: every session checkpoints to a per-session
// spool file on a cadence, on detach and on disconnect, so a client
// (or the whole daemon) can die at any moment and a session with the
// same id plus Resume continues from the spooled frontier, re-feeding
// only the tail, with the finished report byte-identical to an
// uninterrupted library run — proven by fault-injected
// restart-equivalence tests across engines and worker counts, and
// again end to end (real kill -9, real processes) by the CI daemon
// lane.
//
// Two per-session budgets keep tenants isolated: a retained-bytes cap
// enforced through the MemStats accounting (over-budget sessions are
// evicted with a final checkpoint and a resumable position) and an
// events/sec cap enforced by throttling. A statistics endpoint
// reports uptime, the live session table, per-engine occupancy, and
// event/race rates over a sliding window. cmd/tcrace is the stock
// client: -remote ships a locally decoded trace to a daemon and
// renders the identical report, -resume-session continues an
// interrupted or evicted session (exit code 4 marks an eviction),
// and -daemon-stats prints the statistics snapshot as JSON.
//
// # Static analysis
//
// The invariants above are enforced twice: dynamically by the
// differential and fault-injection harnesses, and statically by
// cmd/tcvet, a vet-style multichecker over the four custom analyzers
// in internal/lint. Each analyzer encodes one documented contract and
// names the harness that proves it dynamically:
//
//   - refpair: every snapshot reference acquired from a sparse-store
//     Snapshot call must reach Drop, an Assign ownership transfer, or
//     a documented hand-off on every path, and must never be Dropped
//     twice — the refcount discipline of the copy-on-write segment
//     arenas ("Weak clocks" above; dynamically audited by the
//     FreeCount/Heap accounting in the vt and wcp tests).
//   - ckptsym: paired save/load functions (Save/Load, Snapshot/Restore
//     by naming convention) must Enc/Dec the same wire-kind sequence,
//     counts before elements, sections by matching name — the
//     checkpoint symmetry of "Checkpointing and crash equivalence"
//     (dynamically pinned by the golden file and the round-trip
//     harness, which once caught exactly this bug class as a
//     zigzag-vs-uvarint count mismatch).
//   - detrange: no unsorted map iteration may flow into checkpoint
//     encoders, accumulator reports, or order-accumulated slices, and
//     the engine/parallel/wcp/ckpt core must not touch time.Now or
//     math/rand — the replica-determinism property that keeps sharded
//     and resumed runs byte-identical ("Sharded parallel analysis";
//     dynamically proven by the parallel and crash differential
//     matrices).
//   - clockgrow: no Inc on a freshly constructed vt.Clock slot without
//     a dominating Grow/Init or capacity guard — the growth contract
//     of "Architecture" (Get beyond capacity is defined, Inc is not).
//
// `go run ./cmd/tcvet ./...` exits 0 on a clean tree, 1 on findings,
// 2 on load errors; a CI lint lane runs it (with staticcheck and
// govulncheck alongside) on every push, and the analyzers' golden
// corpora live under internal/lint/testdata. The analyzers fail open
// by design: code the abstractions cannot model is skipped, never
// flagged, so every diagnostic is actionable.
//
// # Layout
//
//   - The clock data structures: NewTreeClock (the contribution) and
//     NewVectorClock (the Θ(k)-per-operation baseline). Both implement
//     the same operations (Get, Inc, Grow, Join, MonotoneCopy, ...).
//   - Traces: Event, Trace, ParseTrace / WriteTraceText and friends,
//     plus the streaming scanners for both formats.
//   - Engines: the registry behind RunStream, RunStreamSource and
//     Session, selected by name; a materialized trace streams through
//     NewTraceReplayer. Engines run a FastTrack-style race analysis by
//     default; WCP reports predictive races — a superset of the HB
//     races — through the same machinery.
//   - Workload generators (GenerateMixed, scenario generators) and the
//     experiment harness behind cmd/tcbench, the one implementation of
//     every table and figure of the paper, run through the same
//     registry. The ROADMAP's Performance section records measured
//     numbers; benchmark/README.md describes the per-layer benchmark,
//     which times reader-fed streaming.
//
// # Quickstart
//
//	res, err := treeclock.RunStream("hb-tree", traceFile)
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Printf("%d events, %d races\n", res.Events, res.Summary.Total)
//	for _, race := range res.Samples {
//		fmt.Println(race)
//	}
//
// Or, materialized:
//
//	tr, _ := treeclock.ParseTraceString(`
//	t0 acq l0
//	t0 w x0
//	t0 rel l0
//	t1 r x0
//	`)
//	res, err := treeclock.RunStreamSource("hb-tree", treeclock.NewTraceReplayer(tr))
//	if err != nil {
//		log.Fatal(err)
//	}
//	for _, race := range res.Samples {
//		fmt.Println(race)
//	}
//
// See examples/ for complete programs.
package treeclock
