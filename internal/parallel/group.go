package parallel

import (
	"sync"

	"treeclock/internal/trace"
)

// ringLen is each worker's ring capacity in batches; the buffer pool
// holds two more, so the coordinator only blocks when the slowest
// worker is genuinely behind.
const ringLen = 8

// Group is the fan-out transport: one worker goroutine per replica,
// each behind its own SPSC ring, fed incrementally by the caller. A
// streaming session drives it the same way whether it pulls batches
// from a decoder or is pushed them (a daemon feeding client batches as
// they arrive over a socket).
//
// All coordinator-side methods — Feed, Barrier, Close — must be called
// from a single goroutine, matching the single-producer contract of
// the underlying rings. Workers run until Close.
type Group struct {
	rings []*spscRing
	wg    sync.WaitGroup
	free  chan []trace.Event // buffer pool, returned to by the last worker
	// events is the global trace position of the next event to be fed:
	// the start position plus everything delivered so far.
	// Coordinator-goroutine only.
	events uint64
	closed bool
}

// NewGroup starts one worker goroutine per replica and returns the
// group ready to be fed. startAt is the global trace position of the
// first event to be fed — non-zero when resuming from a checkpoint, so
// position stamps continue the interrupted run's numbering. replicas
// must be non-empty.
func NewGroup(replicas []Replica, startAt uint64) *Group {
	g := &Group{
		rings:  make([]*spscRing, len(replicas)),
		free:   make(chan []trace.Event, ringLen+2),
		events: startAt,
	}
	for i := 0; i < cap(g.free); i++ {
		g.free <- make([]trace.Event, trace.DefaultBatchSize)
	}
	for w := range replicas {
		g.rings[w] = newRing(ringLen)
		g.wg.Add(1)
		go g.worker(replicas[w], g.rings[w])
	}
	return g
}

// worker is one replica's consume loop: process data batches in ring
// order, return each spent buffer to the pool, park at barriers, exit
// when the ring closes.
func (g *Group) worker(rep Replica, ring *spscRing) {
	defer g.wg.Done()
	for {
		b, ok := ring.Pop()
		if !ok {
			return
		}
		if b.pause != nil {
			b.pause.Done()
			<-b.resume
			continue
		}
		rep.ProcessBatchAt(b.base, b.events)
		if b.refs.Add(-1) == 0 {
			g.free <- b.events[:cap(b.events)]
		}
	}
}

// Feed copies evs into pooled buffers, trace.DefaultBatchSize events
// at a time, and fans each buffer out to every worker in trace order.
// The caller keeps ownership of evs. Blocks while the pool is empty,
// that is while the slowest worker's ring is full.
func (g *Group) Feed(evs []trace.Event) {
	for len(evs) > 0 {
		buf := <-g.free
		n := copy(buf, evs)
		b := &sharedBatch{events: buf[:n], base: g.events}
		b.refs.Store(int32(len(g.rings)))
		for _, ring := range g.rings {
			ring.Push(b)
		}
		g.events += uint64(n)
		evs = evs[n:]
	}
}

// Barrier pauses every worker at the current trace position and runs
// fn (if non-nil) while they are parked, so fn may read all replica
// state without synchronization: the rings are FIFO, so by the time
// all workers have arrived each has processed every event fed so far
// and nothing else. Returns fn's error after releasing the workers.
func (g *Group) Barrier(fn func(events uint64) error) error {
	var arrived sync.WaitGroup
	arrived.Add(len(g.rings))
	b := &sharedBatch{pause: &arrived, resume: make(chan struct{})}
	for _, ring := range g.rings {
		ring.Push(b)
	}
	arrived.Wait()
	var err error
	if fn != nil {
		err = fn(g.events)
	}
	close(b.resume)
	return err
}

// Close marks the stream complete and waits for every worker to drain
// its ring and exit. Idempotent; no Feed or Barrier may follow.
func (g *Group) Close() {
	if g.closed {
		return
	}
	g.closed = true
	for _, ring := range g.rings {
		ring.Close()
	}
	g.wg.Wait()
}
