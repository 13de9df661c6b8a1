package vt

// Checkpoint serialization for the weak-clock transport.
//
// The sparse representation's whole point is copy-on-write sharing, so
// its checkpoint form must not flatten that sharing: a restored engine
// has to retain byte-identical memory accounting and evolve segment
// refcounts exactly as the uninterrupted run would. The trick is that
// segments are arena-indexed, so the object graph — every clock,
// snapshot and summary that shares a segment — serializes as raw
// segRef indices, and one dump of the arena (slot contents plus
// refcounts, SparseStore.SaveState) reconstructs all of the sharing at
// once. Nothing re-retains on load: the dumped refcounts already count
// every holder that will be loaded after the store.
//
// Capacities are serialized wherever the memory accounting reads cap
// (FlatWeak vectors, flat free-list buffers, sparse segment
// directories), so Heap/SnapHeap/LiveHeap answers are byte-identical
// after a restore and — growth being deterministic — stay identical
// for the rest of the run.

import "treeclock/internal/ckpt"

// MaxID bounds identifiers decoded from checkpoints (threads, locks,
// variables): far above any live identifier space, while keeping a
// CRC-valid but inconsistent value from indexing clock state out of
// bounds downstream.
const MaxID = 1 << 26

// SaveEpoch serializes an epoch (thread id plus local time).
func SaveEpoch(e *ckpt.Enc, ep Epoch) {
	e.Int32(int32(ep.T))
	e.Svarint(int64(ep.Clk))
}

// LoadEpoch decodes an epoch, rejecting thread ids outside [0, MaxID):
// epochs feed Clock.Get, where a negative id would index out of
// bounds. The zero epoch round-trips as (0, 0).
func LoadEpoch(d *ckpt.Dec) Epoch {
	t := d.Int32()
	clk := Time(d.Svarint())
	if d.Err() != nil {
		return Epoch{}
	}
	if t < 0 || t >= MaxID {
		d.Corruptf("epoch thread %d out of range", t)
		return Epoch{}
	}
	return Epoch{T: TID(t), Clk: clk}
}

// LoadTID decodes a thread id, rejecting values outside [0, MaxID).
func LoadTID(d *ckpt.Dec) TID {
	t := d.Int32()
	if d.Err() != nil {
		return 0
	}
	if t < 0 || t >= MaxID {
		d.Corruptf("thread id %d out of range", t)
		return 0
	}
	return TID(t)
}

// SaveWeak implements WeakClock for FlatWeak: length, capacity (Heap
// reads cap) and entries.
func (w *FlatWeak) SaveWeak(e *ckpt.Enc) {
	e.Uvarint(uint64(len(w.v)))
	e.Uvarint(uint64(cap(w.v)))
	for _, t := range w.v {
		e.Svarint(int64(t))
	}
}

// LoadWeak implements WeakClock for FlatWeak.
func (w *FlatWeak) LoadWeak(d *ckpt.Dec) {
	n := d.Len(1)
	c := d.Cap(n)
	if d.Err() != nil {
		return
	}
	w.v = make(Vector, n, c)
	for i := range w.v {
		w.v[i] = Time(d.Int32())
	}
}

// SaveWeak implements WeakClock for Sparse: the segment directory is
// saved as raw arena indices (the matching store's SaveState dumps the
// arena itself), preserving every share. cap(segs) is saved because
// Heap reads it.
func (c *Sparse) SaveWeak(e *ckpt.Enc) {
	e.Int(c.n)
	e.U64(c.rev)
	e.Uvarint(uint64(len(c.segs)))
	e.Uvarint(uint64(cap(c.segs)))
	for _, r := range c.segs {
		e.Uvarint(uint64(r))
	}
}

// LoadWeak implements WeakClock for Sparse. The clock must be bound to
// an already-loaded pool (SnapStore.NewW after LoadState), which is
// what makes reference validation possible.
func (c *Sparse) LoadWeak(d *ckpt.Dec) {
	n := d.Int()
	rev := d.U64()
	nb := d.Len(1)
	cb := d.Cap(nb)
	if d.Err() != nil {
		return
	}
	if n < 0 || nb != (n+segMask)>>segShift {
		d.Corruptf("sparse clock directory length %d does not cover %d threads", nb, n)
		return
	}
	p := c.pl()
	for _, r := range c.segs {
		p.release(r)
	}
	segs := make([]segRef, nb, cb)
	for i := range segs {
		segs[i] = p.loadRef(d)
	}
	if d.Err() != nil {
		return
	}
	c.segs, c.n, c.rev = segs, n, rev
}

// loadRef decodes one arena reference, rejecting indices outside the
// carved arena.
func (p *SegPool) loadRef(d *ckpt.Dec) segRef {
	r := d.Uvarint()
	if d.Err() != nil {
		return 0
	}
	if r >= uint64(p.next) && r != 0 {
		d.Corruptf("segment reference %d outside arena (next %d)", r, p.next)
		return 0
	}
	return segRef(r)
}

// SaveState implements SnapStore for FlatStore: the live-bytes counter
// and the free list's buffer capacities (contents are dead — Snapshot
// overwrites a popped buffer — but Heap reads every cap).
func (f *FlatStore) SaveState(e *ckpt.Enc) {
	e.U64(f.live)
	e.Uvarint(uint64(len(f.free)))
	for _, v := range f.free {
		e.Uvarint(uint64(cap(v)))
	}
}

// LoadState implements SnapStore for FlatStore.
func (f *FlatStore) LoadState(d *ckpt.Dec) {
	live := d.U64()
	n := d.Len(1)
	if d.Err() != nil {
		return
	}
	if n > maxFreeSnapshots {
		d.Corruptf("flat free list length %d exceeds cap %d", n, maxFreeSnapshots)
		return
	}
	f.live = live
	f.free = make([]Vector, n)
	for i := range f.free {
		c := d.Cap(0)
		if d.Err() != nil {
			return
		}
		f.free[i] = make(Vector, c)
	}
}

// SaveSnap implements SnapStore for FlatStore: a flat snapshot is a
// plain vector; cap is saved because Heap-style accounting and buffer
// recycling read it.
func (f *FlatStore) SaveSnap(e *ckpt.Enc, s *Vector) {
	e.Uvarint(uint64(len(*s)))
	e.Uvarint(uint64(cap(*s)))
	for _, t := range *s {
		e.Svarint(int64(t))
	}
}

// LoadSnap implements SnapStore for FlatStore. The live-bytes counter
// is not touched: it was saved wholesale by SaveState, which already
// counted every snapshot being reloaded.
func (f *FlatStore) LoadSnap(d *ckpt.Dec, s *Vector) {
	n := d.Len(1)
	c := d.Cap(n)
	if d.Err() != nil {
		return
	}
	v := make(Vector, n, c)
	for i := range v {
		v[i] = Time(d.Int32())
	}
	*s = v
}

// SaveState implements SnapStore for SparseStore: one dump of the
// arena — the carve high-water mark, the free list, and every carved
// slot's refcount and (for live slots) payload — followed by the
// per-thread previous-snapshot diff bases and their revision cache.
// Restoring the arena verbatim reconstructs every copy-on-write share
// at once; holders loaded afterwards (weak clocks, history entries,
// summaries, the diff bases here) store raw indices and never
// re-retain, because the dumped refcounts already include them.
func (st *SparseStore) SaveState(e *ckpt.Enc) {
	p := &st.pool
	e.Uvarint(uint64(p.next))
	e.Uvarint(uint64(len(p.free)))
	for _, r := range p.free {
		e.Uvarint(uint64(r))
	}
	for r := segRef(1); r < p.next; r++ {
		s := p.at(r)
		e.Int32(s.ref)
		if s.ref > 0 {
			for _, v := range s.vals {
				e.Svarint(int64(v))
			}
		}
	}
	e.Uvarint(uint64(len(st.prev)))
	for i := range st.prev {
		st.SaveSnap(e, &st.prev[i])
	}
	for _, r := range st.prevRev {
		e.U64(r)
	}
}

// LoadState implements SnapStore for SparseStore.
func (st *SparseStore) LoadState(d *ckpt.Dec) {
	next := d.Uvarint()
	if d.Err() != nil {
		return
	}
	if next == 1 || next > maxSegRefs {
		d.Corruptf("arena high-water mark %d out of range", next)
		return
	}
	p := &st.pool
	*p = SegPool{next: segRef(next)}
	if next > 1 {
		p.chunks = make([][]Seg, ((int(next)-1)>>chunkShift)+1)
		for i := range p.chunks {
			p.chunks[i] = make([]Seg, chunkLen)
		}
	}
	nfree := d.Len(1)
	if d.Err() != nil {
		return
	}
	p.free = make([]segRef, nfree)
	for i := range p.free {
		r := p.loadRef(d)
		if d.Err() != nil {
			return
		}
		if r == 0 {
			d.Corruptf("free list holds the reserved slot")
			return
		}
		p.free[i] = r
	}
	for r := segRef(1); r < p.next; r++ {
		s := p.at(r)
		s.ref = d.Int32()
		if d.Err() != nil {
			return
		}
		if s.ref < 0 {
			d.Corruptf("segment %d has negative refcount %d", r, s.ref)
			return
		}
		if s.ref > 0 {
			for j := range s.vals {
				s.vals[j] = Time(d.Int32())
			}
		}
	}
	n := d.Count()
	if d.Err() != nil {
		return
	}
	st.prev = make([]SparseSnap, n)
	for i := range st.prev {
		st.LoadSnap(d, &st.prev[i])
		if d.Err() != nil {
			return
		}
	}
	st.prevRev = make([]uint64, n)
	for i := range st.prevRev {
		st.prevRev[i] = d.U64()
	}
}

// maxSegRefs bounds the arena high-water mark a checkpoint may claim
// (the same sanity role as ckpt's slice bound: real arenas track live
// identifier spaces, and the bound keeps a corrupt value from forcing
// a giant allocation before validation catches up).
const maxSegRefs = 1 << 26

// SaveSnap implements SnapStore for SparseStore: the out-of-band epoch
// and the raw segment references (see SaveState for why no sharing
// metadata is needed).
func (st *SparseStore) SaveSnap(e *ckpt.Enc, s *SparseSnap) {
	e.Int32(int32(s.t))
	e.Int32(int32(s.lt))
	e.Int32(s.n)
	nb := (int(s.n) + segMask) >> segShift
	for i := 0; i < nb; i++ {
		e.Uvarint(uint64(s.seg(i)))
	}
}

// LoadSnap implements SnapStore for SparseStore.
func (st *SparseStore) LoadSnap(d *ckpt.Dec, s *SparseSnap) {
	t := TID(d.Int32())
	lt := Time(d.Int32())
	n := d.Int32()
	if d.Err() != nil {
		return
	}
	if n < 0 || n > maxSegRefs {
		d.Corruptf("snapshot thread space %d out of range", n)
		return
	}
	nb := (int(n) + segMask) >> segShift
	snap := SparseSnap{t: t, lt: lt, n: n}
	if nb > snapInline {
		snap.more = make([]segRef, nb-snapInline)
	}
	for i := 0; i < nb; i++ {
		snap.setSeg(i, st.pool.loadRef(d))
	}
	if d.Err() != nil {
		return
	}
	*s = snap
}
