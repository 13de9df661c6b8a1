package vt

import "treeclock/internal/ckpt"

// Weak-clock transport contracts.
//
// Weak partial orders (WCP and its relatives) keep per-thread clocks
// whose own entry is NOT the thread's local time: other threads
// routinely know more about a thread than the thread's weak clock
// records about itself. That breaks the provenance invariant tree-clock
// joins rely on ("only t's own clock knows t's future"), so the weak
// transport cannot ride on the Clock contract's tree variant. Instead
// it is abstracted behind two small interfaces so an engine can swap
// the representation — the flat Θ(k)-per-operation baseline below, or
// the copy-on-write segment representation in sparse.go — without
// touching any algorithm code. The two implementations must be
// observationally identical; internal/wcp pins them against each other
// differentially.
//
// The contract splits in two because weak-order engines handle two
// kinds of values: the mutable per-thread/per-lock weak clocks (W),
// and the immutable release snapshots (S) pinned by critical-section
// histories and rule-(a) summaries. Snapshots dominate the retained
// state, so their representation owns the recycling policy: every S is
// created, copied and dropped through the SnapStore that produced it.

// WeakClock is a mutable weak-order clock over W's own representation
// S of release snapshots. The type parameter W is the implementing
// type itself (F-bounded, like Clock), so all operations dispatch
// statically.
type WeakClock[W any, S any] interface {
	// Get returns the recorded time of thread t in O(1); threads
	// beyond the clock's length report 0.
	Get(t TID) Time
	// Len is the clock's logical length (the thread-space high-water
	// mark of its entries).
	Len() int
	// Join updates the clock to the pointwise maximum with o.
	Join(o W)
	// CopyFrom overwrites the clock with o: entries beyond o's length
	// read as zero afterwards (the publish step of a weak engine).
	CopyFrom(o W)
	// Absorb joins a release snapshot produced by the matching
	// SnapStore, including the snapshot's own release epoch.
	Absorb(s *S)
	// Vector materializes the clock into dst (grown when shorter than
	// Len) and returns it. Entries of dst beyond Len are untouched.
	Vector(dst Vector) Vector
	// Heap approximates the bytes retained by the clock.
	Heap() uint64
	// SaveWeak serializes the clock into the open section of e in its
	// native representation (sharing-preserving for the sparse clock),
	// for checkpoint/restore. The matching store's state must be saved
	// before any clock bound to it.
	SaveWeak(e *ckpt.Enc)
	// LoadWeak restores state written by SaveWeak. The clock must be
	// bound to a store whose LoadState already ran. Failures latch in d.
	LoadWeak(d *ckpt.Dec)
}

// SnapStore creates and recycles the release snapshots a weak-order
// engine retains, and the weak clocks that absorb them. One store
// serves one engine run; it is free to keep shared scratch state, so
// it must not be used from more than one goroutine.
type SnapStore[W any, S any] interface {
	// NewW returns a fresh zero weak clock bound to this store.
	NewW() W
	// Snapshot builds the release snapshot of thread t over a thread
	// space of k entries from view, a borrowed read-only
	// materialization of the releaser's HB clock at the release
	// (typically the clock's own flat mirror, see Clock.VectorView).
	// view may be shorter than k — missing entries are zero — and is
	// only read during the call; the store copies whatever it must
	// retain. view[t] is the release's own epoch. rev is the source
	// clock's foreign-entry revision counter (Clock.Rev): a store may
	// skip re-reading view entirely when t's previous snapshot was
	// built at the same rev over the same thread space, since every
	// foreign entry is then guaranteed unchanged and view[t] is
	// available through view. Stores that always copy ignore it.
	Snapshot(t TID, view Vector, rev uint64, k int) S
	// SnapGet reads the snapshot's entry for thread u (the exact HB
	// time h[u] it was built from).
	SnapGet(s *S, u TID) Time
	// Assign overwrites *dst — a zero S or a previous Assign target —
	// with a copy of *src. dst and src may already share storage.
	Assign(dst, src *S)
	// Drop releases *s back to the store and zeroes it.
	Drop(s *S)
	// FreeCount reports how many recycled snapshot carriers are parked
	// in the store awaiting reuse.
	FreeCount() int
	// SnapHeap approximates the bytes *s pins, with storage shared
	// between snapshots attributed fractionally so that summing over
	// all live snapshots approximates the total. It must depend only
	// on store state (never on the strong-clock backbone).
	SnapHeap(s *S) uint64
	// LiveHeap approximates, in O(1), the total bytes pinned by every
	// snapshot the store has handed out and not yet dropped — the
	// aggregate SnapHeap answers without walking the holders, so
	// retained-state accounting stays cheap even against a history of
	// hundreds of thousands of entries.
	LiveHeap() uint64
	// Heap approximates the bytes parked in the store itself (the
	// free pool).
	Heap() uint64
	// SaveState serializes the store's own state (arenas, free pools,
	// diff bases) into the open section of e. It must be saved before
	// any weak clock or snapshot it produced, and preserves sharing:
	// restoring the store plus every holder reproduces the exact
	// object graph, refcounts and accounting of the saved run.
	SaveState(e *ckpt.Enc)
	// LoadState restores state written by SaveState into an empty
	// store. Failures latch in d.
	LoadState(d *ckpt.Dec)
	// SaveSnap serializes one snapshot (raw references into the
	// store's already-saved state; nothing is flattened).
	SaveSnap(e *ckpt.Enc, s *S)
	// LoadSnap restores a snapshot written by SaveSnap, without
	// touching refcounts or live accounting — LoadState already
	// restored those wholesale.
	LoadSnap(d *ckpt.Dec, s *S)
}

// maxFreeSnapshots caps the flat store's free list: a burst compaction
// after a long unabsorbed stretch must not turn reclaimed history into
// a permanently hoarded pool. Beyond the cap, dropped vectors go to
// the garbage collector.
const maxFreeSnapshots = 256

// FlatWeak is the flat-vector weak clock: every operation is Θ(k).
// It is the baseline the sparse representation is measured against and
// differentially pinned to.
type FlatWeak struct {
	v Vector
}

// Get implements WeakClock.
func (w *FlatWeak) Get(t TID) Time { return w.v.Get(t) }

// Len implements WeakClock.
func (w *FlatWeak) Len() int { return len(w.v) }

// Join implements WeakClock.
func (w *FlatWeak) Join(o *FlatWeak) {
	if len(o.v) > len(w.v) {
		w.v = GrowSlice(w.v, len(o.v))
	}
	w.v.Join(o.v)
}

// CopyFrom implements WeakClock: copy o and zero the tail beyond it.
func (w *FlatWeak) CopyFrom(o *FlatWeak) {
	if len(o.v) > len(w.v) {
		w.v = GrowSlice(w.v, len(o.v))
	}
	n := copy(w.v, o.v)
	for i := n; i < len(w.v); i++ {
		w.v[i] = 0
	}
}

// Absorb implements WeakClock: a flat snapshot is a plain vector
// (whose own entry already holds the release epoch), so absorption is
// a join.
func (w *FlatWeak) Absorb(s *Vector) {
	if len(*s) > len(w.v) {
		w.v = GrowSlice(w.v, len(*s))
	}
	w.v.Join(*s)
}

// Vector implements WeakClock.
func (w *FlatWeak) Vector(dst Vector) Vector {
	if len(dst) < len(w.v) {
		dst = GrowSlice(dst, len(w.v))
	}
	copy(dst, w.v)
	return dst
}

// Heap implements WeakClock.
func (w *FlatWeak) Heap() uint64 { return uint64(cap(w.v)) * 8 }

// FlatStore is the snapshot store of the flat representation: release
// snapshots are plain vectors recycled through a capped free list.
// live tracks the bytes of handed-out, not-yet-dropped snapshots for
// the O(1) LiveHeap answer.
type FlatStore struct {
	free []Vector
	live uint64
}

// NewFlatStore returns an empty flat snapshot store.
func NewFlatStore() *FlatStore { return &FlatStore{} }

// NewW implements SnapStore.
func (f *FlatStore) NewW() *FlatWeak { return &FlatWeak{} }

// Snapshot implements SnapStore: copy the borrowed view into a
// full-length vector, reusing a recycled snapshot buffer when one is
// parked. A recycled buffer whose capacity went stale — the thread
// space grew since the buffer was parked — is re-grown in place of
// being discarded: after mid-stream thread growth every parked buffer
// is stale at once, and discarding on pop would drain the free list
// back to one allocation per release exactly when snapshots got
// bigger. GrowSlice's amortized doubling means each buffer pays at
// most O(log k) regrowths over a run, after which it recycles at full
// size again. The flat store copies unconditionally, so rev is unused.
func (f *FlatStore) Snapshot(t TID, view Vector, rev uint64, k int) Vector {
	var h Vector
	if n := len(f.free); n > 0 {
		h = f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		if cap(h) < k {
			h = GrowSlice(h[:cap(h)], k)
		}
		h = h[:k]
	} else {
		h = NewVector(k)
	}
	if len(view) > k {
		view = view[:k]
	}
	n := copy(h, view)
	for i := n; i < k; i++ {
		h[i] = 0
	}
	f.live += uint64(k) * 8
	return h
}

// SnapGet implements SnapStore.
func (f *FlatStore) SnapGet(s *Vector, u TID) Time { return s.Get(u) }

// Assign implements SnapStore: copy into dst's buffer, reusing its
// capacity.
func (f *FlatStore) Assign(dst, src *Vector) {
	f.live += uint64(len(*src)) * 8
	f.live -= uint64(len(*dst)) * 8
	*dst = append((*dst)[:0], (*src)...)
}

// Drop implements SnapStore: park the vector for reuse.
func (f *FlatStore) Drop(s *Vector) {
	f.live -= uint64(len(*s)) * 8
	if *s != nil && len(f.free) < maxFreeSnapshots {
		f.free = append(f.free, *s)
	}
	*s = nil
}

// FreeCount implements SnapStore.
func (f *FlatStore) FreeCount() int { return len(f.free) }

// SnapHeap implements SnapStore: 8 bytes per entry, matching the
// repository-wide approximate accounting.
func (f *FlatStore) SnapHeap(s *Vector) uint64 { return uint64(len(*s)) * 8 }

// LiveHeap implements SnapStore.
func (f *FlatStore) LiveHeap() uint64 { return f.live }

// Heap implements SnapStore.
func (f *FlatStore) Heap() uint64 {
	var b uint64
	for i := range f.free {
		b += uint64(cap(f.free[i])) * 8
	}
	return b
}

// Compile-time conformance.
var (
	_ WeakClock[*FlatWeak, Vector]   = (*FlatWeak)(nil)
	_ SnapStore[*FlatWeak, Vector]   = (*FlatStore)(nil)
	_ WeakClock[*Sparse, SparseSnap] = (*Sparse)(nil)
	_ SnapStore[*Sparse, SparseSnap] = (*SparseStore)(nil)
)
