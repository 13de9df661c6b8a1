package treeclock

import (
	"io"

	"treeclock/internal/analysis"
	"treeclock/internal/core"
	"treeclock/internal/gen"
	"treeclock/internal/trace"
	"treeclock/internal/vc"
	"treeclock/internal/vt"
)

// Core types, re-exported from the internal packages so downstream
// users import only this package.
type (
	// TreeClock is the tree clock data structure (paper Algorithm 2).
	TreeClock = core.TreeClock
	// VectorClock is the flat Θ(k)-per-operation baseline.
	VectorClock = vc.VectorClock
	// ThreadID identifies a thread (dense, 0-based).
	ThreadID = vt.TID
	// Time is a logical (local) time.
	Time = vt.Time
	// Vector is a plain vector timestamp.
	Vector = vt.Vector
	// Epoch is a compact (thread, local time) event identifier.
	Epoch = vt.Epoch
	// WorkStats counts data-structure work (entries touched/changed).
	WorkStats = vt.WorkStats
)

// NewTreeClock returns an empty tree clock over numThreads threads.
// Call Init(t) to make it a thread's clock; auxiliary clocks (locks,
// variables) stay uninitialized.
func NewTreeClock(numThreads int) *TreeClock { return core.New(numThreads, nil) }

// NewTreeClockCounting is NewTreeClock with a shared work-counter sink.
func NewTreeClockCounting(numThreads int, st *WorkStats) *TreeClock {
	return core.New(numThreads, st)
}

// NewVectorClock returns a zero vector clock over numThreads threads.
func NewVectorClock(numThreads int) *VectorClock { return vc.New(numThreads, nil) }

// NewVectorClockCounting is NewVectorClock with a work-counter sink.
func NewVectorClockCounting(numThreads int, st *WorkStats) *VectorClock {
	return vc.New(numThreads, st)
}

// Trace types.
type (
	// Event is one trace step.
	Event = trace.Event
	// Kind is an event operation.
	Kind = trace.Kind
	// Meta describes a trace's identifier spaces.
	Meta = trace.Meta
	// Trace is a materialized execution trace.
	Trace = trace.Trace
	// TraceStats summarizes a trace (paper Tables 1/3 fields).
	TraceStats = trace.Stats
)

// Event kinds.
const (
	Read    = trace.Read
	Write   = trace.Write
	Acquire = trace.Acquire
	Release = trace.Release
	Fork    = trace.Fork
	Join    = trace.Join
)

// TraceScanner streams events from a text-format trace without
// materializing it (for logs larger than memory).
type TraceScanner = trace.Scanner

// NewTraceScanner wraps a text-format trace stream.
func NewTraceScanner(r io.Reader) *TraceScanner { return trace.NewScanner(r) }

// BinaryTraceScanner streams events from a binary-format trace without
// materializing it.
type BinaryTraceScanner = trace.BinaryScanner

// NewBinaryTraceScanner wraps a binary-format trace stream (the format
// written by WriteTraceBinary).
func NewBinaryTraceScanner(r io.Reader) *BinaryTraceScanner { return trace.NewBinaryScanner(r) }

// EventSource is the streaming event interface implemented by both
// scanners; RunStream and the engine runtime consume it.
type EventSource = trace.EventSource

// BatchEventSource is an EventSource that also delivers events in
// batches into a caller-owned buffer, amortizing per-event call
// overhead. Both scanners, the validator and the trace replayer
// implement it, and the engine runtime consumes batches automatically.
type BatchEventSource = trace.BatchSource

// TraceReplayer streams a materialized trace through the same
// EventSource/batch interface as the file scanners.
type TraceReplayer = trace.Replayer

// NewTraceReplayer wraps a materialized trace as an event source.
func NewTraceReplayer(tr *Trace) *TraceReplayer { return trace.NewReplayer(tr) }

// TracePipeline decodes a wrapped event source in its own goroutine,
// feeding consumers batches through a ring of recycled buffers (see
// WithPipeline for the RunStream knob). Close it if it is abandoned
// before exhaustion.
type TracePipeline = trace.Pipeline

// NewTracePipeline wraps src with an asynchronous decode stage of the
// given ring depth and batch size (<= 0 selects defaults).
func NewTracePipeline(src EventSource, depth, batchSize int) *TracePipeline {
	return trace.NewPipeline(src, depth, batchSize)
}

// ParseTrace reads the text trace format ("<thread> <op> <operand>"
// lines; see internal/trace for the grammar).
func ParseTrace(r io.Reader) (*Trace, error) { return trace.ParseText(r) }

// ParseTraceString is ParseTrace over a string.
func ParseTraceString(s string) (*Trace, error) { return trace.ParseTextString(s) }

// WriteTraceText serializes a trace to the text format.
func WriteTraceText(w io.Writer, tr *Trace) error { return trace.WriteText(w, tr) }

// WriteTraceBinary serializes a trace to the compact binary format.
func WriteTraceBinary(w io.Writer, tr *Trace) error { return trace.WriteBinary(w, tr) }

// ReadTraceBinary deserializes a binary trace.
func ReadTraceBinary(r io.Reader) (*Trace, error) { return trace.ReadBinary(r) }

// ComputeTraceStats scans a trace and summarizes it.
func ComputeTraceStats(tr *Trace) TraceStats { return trace.ComputeStats(tr) }

// Analysis types.
type (
	// Race is one detected concurrent conflicting pair.
	Race = analysis.Pair
	// RaceKind classifies a race (w-w, w-r, r-w).
	RaceKind = analysis.PairKind
	// RaceSummary is the aggregate of an analysis run.
	RaceSummary = analysis.Summary
)

// Race kinds.
const (
	WriteWriteRace = analysis.WriteWrite
	WriteReadRace  = analysis.WriteRead
	ReadWriteRace  = analysis.ReadWrite
)

// Workload generation.
type GenConfig = gen.Config

// GenerateMixed synthesizes a well-formed trace with the configured
// thread/lock/variable counts, sync ratio and access locality.
func GenerateMixed(cfg GenConfig) *Trace { return gen.Mixed(cfg) }

// Scalability scenario generators (paper §6, Figure 10).
var (
	GenerateSingleLock       = gen.SingleLock
	GenerateFiftyLocksSkewed = gen.FiftyLocksSkewed
	GenerateStar             = gen.Star
	GeneratePairwise         = gen.Pairwise
)

// Application-shaped generators.
var (
	GenerateProducerConsumer = gen.ProducerConsumer
	GeneratePipeline         = gen.Pipeline
	GenerateBarrierPhases    = gen.BarrierPhases
	GenerateReadersWriters   = gen.ReadersWriters
	GenerateForkJoinTree     = gen.ForkJoinTree
)

// Lock-structure-heavy generators for the weak-order engines: nested
// critical sections, fully guarded conflicting accesses (race-free
// under every order), and the canonical predictive-race shape that HB
// orders through the lock but WCP flags.
var (
	GenerateNestedLocks     = gen.NestedLocks
	GenerateGuardedPairs    = gen.GuardedPairs
	GeneratePredictivePairs = gen.PredictivePairs
)

// EventStream is an endless, deterministic workload generator
// implementing EventSource/BatchEventSource: events are produced on
// demand, so soak scenarios of unbounded length stream straight
// through RunStreamSource with no materialization. Every emitted
// prefix is a well-formed trace.
type EventStream = gen.Stream

// Endless streaming workload generators (cap with LimitEvents):
// all threads contending on one hot lock with conflicting section
// bodies (the adversarial shape for WCP's per-lock history), the hot
// lock rotating across a lock space, and the guarded variable churning
// across a variable space.
var (
	GenerateHotLockStream       = gen.HotLock
	GenerateRotatingLocksStream = gen.RotatingLocks
	GenerateChurningVarsStream  = gen.ChurningVars
)

// GenerateForkChurnStream is the thread-churn workload: a coordinator
// cycles a bounded ring of short-lived forked workers while external
// thread ids grow forever — the adversarial shape for WithSlotReclaim
// (see gen.ForkChurn).
var GenerateForkChurnStream = gen.ForkChurn

// GenerateNameChurnText is the identifier-churn workload in text form:
// hot thread/lock names plus variable names that are used in a bounded
// burst and then retired forever, all spelled so they take the
// tokenizer's map-interned path — the adversarial shape for
// WithInternCap (see gen.NameChurnText).
var GenerateNameChurnText = gen.NameChurnText

// LimitEvents bounds an event source at n events, after which it
// reports clean exhaustion; batch delivery passes through.
func LimitEvents(src EventSource, n int) BatchEventSource { return gen.Take(src, n) }
