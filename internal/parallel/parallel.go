// Package parallel is the worker-group runtime: it fans a decoded
// event stream out to N workers, each running a full engine replica
// on its own goroutine while the feeding goroutine decodes the next
// batch. One replica is exactly that decode/analysis overlap: it owns
// every variable, and its state equals a sequential run's. Two or more
// shard the analysis, so per-variable work spreads across cores while
// the analysis result stays byte-identical to a sequential run.
//
// # Design
//
// Variables partition across workers by stable hash (ShardOf) because
// per-variable analysis state is independent across variables. Clock
// evolution is not: sync events (acquire/release/fork/join) and, for
// the stronger orders, even accesses (SHB's last-write joins, MAZ's
// read bookkeeping, WCP's release summaries) thread ordering
// information through the whole identifier space. Rather than
// serialize those through cross-worker communication — which would put
// a synchronization point on every sync event — every worker processes
// the complete event stream through its own engine replica. The
// coordinator sequences batches into each worker's queue in trace
// order, so every replica performs the identical, deterministic clock
// evolution the sequential engine performs, and the per-variable race
// checks a worker runs for its own shard see exactly the timestamps
// the sequential run would have used. What is sharded is the
// per-variable analysis state and checks (the FastTrack-style detector
// state for HB/SHB, the report gate for MAZ/WCP); what is replicated
// is the clock scaffolding. The speedup therefore comes from the
// analysis share of the per-event cost, which dominates on
// access-heavy workloads.
//
// # Transport
//
// Each worker consumes its own bounded SPSC ring (one producer: the
// coordinator, whichever goroutine feeds the Group; one consumer: the
// worker), so batch hand-off is two atomic loads and a store in the
// common case. Feed copies each batch once into a buffer from a small
// fixed pool and fans that one buffer out: it is wrapped in a
// refcounted sharedBatch, every worker reads the same slice (replicas
// only read events, never mutate them), and the last worker to finish
// returns the buffer to the pool. The caller keeps ownership of what
// it fed, so a pull session's decode buffer and a push session's
// caller-owned batch take the same path. The rings bound the in-flight
// batches, so memory stays O(workers × ring length × batch) and a slow
// worker back-pressures the coordinator instead of ballooning the
// queues.
package parallel

import (
	"sync"
	"sync/atomic"

	"treeclock/internal/trace"
)

// Replica is one worker's analysis engine: a full engine runtime that
// processes every event of the trace (keeping its clock evolution
// identical to a sequential run) while the per-variable analysis is
// gated to the worker's shard by whoever constructed it.
// ProcessBatchAt is called with consecutive batches in trace order;
// base is the global trace position of events[0], so reported races
// can be merged back into trace order.
type Replica interface {
	ProcessBatchAt(base uint64, events []trace.Event)
}

// sharedBatch is one batch in flight to all workers. events is
// read-only while shared; refs counts the workers still processing it,
// and the last one returns the buffer to the group's pool.
//
// A sharedBatch with a non-nil pause field is a barrier, not data: the
// worker reports arrival on pause, blocks on resume, and processes no
// events. Because the rings are FIFO and the coordinator pushes the
// barrier after batch k into every ring, all workers stand at the same
// trace position while the coordinator holds the barrier — the quiesce
// point checkpoints are taken at.
type sharedBatch struct {
	events []trace.Event
	base   uint64 // global trace position of events[0]
	refs   atomic.Int32
	pause  *sync.WaitGroup // barrier arrival; nil for data batches
	resume chan struct{}   // closed by the coordinator to release the barrier
}
