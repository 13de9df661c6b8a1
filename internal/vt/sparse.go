package vt

// The sparse weak-clock representation: a CSST-style segment list with
// copy-on-write sharing (Tunç et al., "Dynamic Race Detection with
// O(1) Samples" / the CSSTs line of work, arXiv 2403.17818 — sparse
// structures for partial orders tree clocks cannot represent).
//
// A clock or snapshot is a list of fixed-size segments of SegSize
// thread slots each. Segments are reference-counted and shared freely
// between clocks, snapshots and the per-thread "previous snapshot"
// cache: every operation that would leave a segment bit-identical
// shares it instead of copying, so the cost of Join, CopyFrom and the
// per-release snapshot is O(changed segments), not Θ(k). A shared
// segment (ref > 1) is immutable; mutation goes through a
// copy-on-write step that gives the writer a private copy. Refcounts
// are plain int32s — an engine run (and hence its store) is owned by
// one goroutine; the parallel runtime gives each worker its own
// replica, so no atomicity is needed.
//
// Segments live in a per-pool chunked arena and are addressed by
// integer index (segRef), not by pointer. The WCP history retains one
// snapshot per uncompacted release — easily tens of thousands of
// entries on rule-(b)-quiet workloads — and with pointer segments the
// garbage collector both scanned that whole history every cycle and
// charged a write barrier for every snapshot copied into it; together
// those were double-digit percentages of the release path. Indices
// make snapshots and clocks pointer-free, so the history is opaque to
// the collector. Arena chunks are fixed-size and never move, which
// also means resolved *Seg pointers stay valid across allocations.
//
// Snapshots (SparseSnap) additionally carry the releaser's own epoch
// (t, lt) out of band: the segment holding the releaser's own slot is
// allowed to go stale (it keeps whatever own-time an earlier release
// of the same thread wrote), because that is exactly what lets
// consecutive releases of a thread share segments — between two
// releases of t, typically only t's own entry moved. The invariant is
//
//	seg value == exact HB time for every slot u ≠ t,
//	seg value <= lt for the own slot t,
//
// so Absorb (join the segments, then raise entry t to lt) reconstructs
// the exact release vector. Only snapshot chains carry a stale slot,
// and only for their own thread; weak clocks are exact in every entry
// (Absorb repairs the own slot before the clock is observed).

const (
	// SegSize is the number of thread slots per segment. 8 slots is 32
	// bytes of payload — one cache line with the refcount — and makes
	// slot arithmetic shift/mask.
	SegSize  = 8
	segShift = 3
	segMask  = SegSize - 1
)

// segBytes approximates one segment's arena footprint (payload,
// refcount, rounding), for the retained-bytes accounting.
const segBytes = 40

// Seg is one reference-counted block of SegSize thread slots, living
// in its pool's arena.
type Seg struct {
	ref  int32
	vals [SegSize]Time
}

// segRef addresses a segment inside its pool's arena. 0 means "no
// segment" (the first arena slot is reserved and never allocated), so
// the zero value of every segRef-bearing structure is an empty clock
// or snapshot, exactly like the pointer representation's nil.
type segRef uint32

const (
	chunkShift = 10 // 1024 segments (~40KB) per arena chunk
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// SegPool recycles segments through a free list over a chunked arena.
// Chunks are carved on demand and never move or shrink: a released
// segment's slot is reused via the free list rather than returned to
// the allocator (the arena's high-water mark is the peak live segment
// count, which the WCP engine's compaction already bounds on the
// workloads where it can). The free list needs no cap — it indexes
// storage the arena owns either way.
type SegPool struct {
	chunks [][]Seg
	free   []segRef
	next   segRef // next never-carved slot; 0 is reserved for "absent"
}

// at resolves a live reference. The returned pointer stays valid
// across get calls (chunks never move).
func (p *SegPool) at(r segRef) *Seg {
	return &p.chunks[r>>chunkShift][r&chunkMask]
}

// get returns a segment with ref == 1 and unspecified slot contents —
// callers overwrite the payload (copy-on-write, snapshot block copy)
// or clear it themselves, so the hot paths never pay a redundant
// zeroing.
func (p *SegPool) get() segRef {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		p.at(r).ref = 1
		return r
	}
	if p.next == 0 {
		p.next = 1
	}
	if int(p.next)>>chunkShift >= len(p.chunks) {
		p.chunks = append(p.chunks, make([]Seg, chunkLen))
	}
	r := p.next
	p.next++
	p.at(r).ref = 1
	return r
}

// retain shares r (zero-safe) and returns it.
func (p *SegPool) retain(r segRef) segRef {
	if r != 0 {
		p.at(r).ref++
	}
	return r
}

// release drops one reference to r (zero-safe), parking the slot for
// reuse when the last reference goes.
func (p *SegPool) release(r segRef) {
	if r == 0 {
		return
	}
	s := p.at(r)
	s.ref--
	if s.ref == 0 {
		p.free = append(p.free, r)
	}
}

// Sparse is the segment-list weak clock. The zero value is an empty
// clock that binds itself to the pool of the first operand it shares
// with; NewW on a SparseStore binds clocks to the store's shared pool
// up front so segments circulate between clocks, snapshots and the
// free list of one engine run.
type Sparse struct {
	segs []segRef
	n    int // logical length (thread-space high-water mark)
	// rev counts the operations that can touch a foreign entry. No
	// engine reads it (the strong clock's Rev drives the snapshot fast
	// path), but checkpoint format v2 carries it (SaveWeak), so it
	// stays to keep checkpoint bytes unchanged.
	rev  uint64
	pool *SegPool
}

// NewSparse returns an empty sparse clock over (at least) k threads
// with its own private segment pool.
func NewSparse(k int) *Sparse {
	c := &Sparse{pool: &SegPool{}}
	c.grow(k)
	return c
}

func (c *Sparse) pl() *SegPool {
	if c.pool == nil {
		c.pool = &SegPool{}
	}
	return c.pool
}

// adopt binds the clock to op when reference sharing is possible: the
// clock either has no pool yet or holds no segments (so nothing ties
// it to its current arena). Clocks of genuinely different pools fall
// back to value copies in the binary operations — indices are only
// meaningful within one arena.
func (c *Sparse) adopt(op *SegPool) {
	if op == nil || c.pool == op {
		return
	}
	if c.pool != nil {
		for _, r := range c.segs {
			if r != 0 {
				return
			}
		}
	}
	c.pool = op
}

// grow extends the logical length (and the segment directory) to cover
// k threads. Invariant: len(c.segs) == ceil(c.n / SegSize).
func (c *Sparse) grow(k int) {
	if k <= c.n {
		return
	}
	c.n = k
	nb := (k + segMask) >> segShift
	if nb > len(c.segs) {
		c.segs = GrowSlice(c.segs, nb)
	}
}

// Get implements WeakClock: O(1), zero beyond the length.
func (c *Sparse) Get(t TID) Time {
	i := int(t) >> segShift
	if int(t) < 0 || i >= len(c.segs) || c.segs[i] == 0 {
		return 0
	}
	return c.pool.at(c.segs[i]).vals[int(t)&segMask]
}

// Len implements WeakClock.
func (c *Sparse) Len() int { return c.n }

// writable returns block i's segment with ref == 1, materializing or
// copy-on-writing as needed. Block i must be within the directory.
func (c *Sparse) writable(i int) *Seg {
	p := c.pl()
	r := c.segs[i]
	if r == 0 {
		r = p.get()
		c.segs[i] = r
		s := p.at(r)
		s.vals = [SegSize]Time{}
		return s
	}
	s := p.at(r)
	if s.ref > 1 {
		nr := p.get()
		ns := p.at(nr)
		ns.vals = s.vals
		s.ref--
		c.segs[i] = nr
		return ns
	}
	return s
}

// SetMax raises thread t's entry to at least v.
func (c *Sparse) SetMax(t TID, v Time) {
	c.rev++
	c.grow(int(t) + 1)
	i := int(t) >> segShift
	j := int(t) & segMask
	if r := c.segs[i]; r != 0 && c.pool.at(r).vals[j] >= v {
		return
	}
	c.writable(i).vals[j] = v
}

// joinSeg joins the operand segment or (resolved through op) into
// block i of the clock. Shared references and dominated blocks
// short-circuit: if the receiver's block is already pointwise ≥ the
// operand the join is a no-op, and if it is pointwise ≤ a same-pool
// operand the receiver adopts the segment (a reference share) instead
// of copying — the common case when one clock trails another, which is
// what makes transport O(changed segments). A foreign-pool operand
// joins by value.
func (c *Sparse) joinSeg(i int, or segRef, op *SegPool) {
	if or == 0 {
		return
	}
	mine := c.segs[i]
	p := c.pl()
	same := p == op
	if same && mine == or {
		return
	}
	ov := &op.at(or).vals
	if mine == 0 {
		if same {
			c.segs[i] = p.retain(or)
		} else {
			nr := p.get()
			p.at(nr).vals = *ov
			c.segs[i] = nr
		}
		return
	}
	ms := p.at(mine)
	leq, geq := true, true
	for j := 0; j < SegSize; j++ {
		if ms.vals[j] > ov[j] {
			leq = false
		} else if ov[j] > ms.vals[j] {
			geq = false
		}
	}
	if geq {
		return
	}
	if leq && same {
		p.release(mine)
		c.segs[i] = p.retain(or)
		return
	}
	w := c.writable(i)
	for j := 0; j < SegSize; j++ {
		if ov[j] > w.vals[j] {
			w.vals[j] = ov[j]
		}
	}
}

// Join implements WeakClock.
func (c *Sparse) Join(o *Sparse) {
	c.rev++
	c.adopt(o.pool)
	c.grow(o.n)
	for i := range o.segs {
		c.joinSeg(i, o.segs[i], o.pool)
	}
}

// CopyFrom implements WeakClock: the clock becomes an exact copy of o
// (entries beyond o's length read zero), sharing every segment when
// the pools match.
func (c *Sparse) CopyFrom(o *Sparse) {
	c.rev++
	c.adopt(o.pool)
	c.grow(o.n)
	p := c.pl()
	same := p == o.pool
	for i := range c.segs {
		var or segRef
		if i < len(o.segs) {
			or = o.segs[i]
		}
		if same {
			if c.segs[i] == or {
				continue
			}
			p.release(c.segs[i])
			c.segs[i] = p.retain(or)
			continue
		}
		if or == 0 {
			p.release(c.segs[i])
			c.segs[i] = 0
			continue
		}
		c.writable(i).vals = o.pool.at(or).vals
	}
}

// Absorb implements WeakClock: join the snapshot's segments, then
// repair the releaser's possibly stale own slot from the out-of-band
// epoch (see the package comment's invariant). The snapshot must come
// from the store whose pool the clock is bound to (NewW), which is how
// the engine wires them.
func (c *Sparse) Absorb(s *SparseSnap) {
	c.rev++
	c.grow(int(s.n))
	p := c.pl()
	nb := (int(s.n) + segMask) >> segShift
	for i := 0; i < nb; i++ {
		c.joinSeg(i, s.seg(i), p)
	}
	c.SetMax(s.t, s.lt)
}

// Vector implements WeakClock: materialize into dst.
func (c *Sparse) Vector(dst Vector) Vector {
	if len(dst) < c.n {
		dst = GrowSlice(dst, c.n)
	}
	for i := range c.segs {
		base := i << segShift
		end := base + SegSize
		if end > c.n {
			end = c.n
		}
		if r := c.segs[i]; r != 0 {
			copy(dst[base:end], c.pool.at(r).vals[:end-base])
		} else {
			for j := base; j < end; j++ {
				dst[j] = 0
			}
		}
	}
	return dst
}

// Heap implements WeakClock: segment storage is attributed
// fractionally across its ref holders so per-object sums approximate
// the total.
func (c *Sparse) Heap() uint64 {
	b := uint64(cap(c.segs)) * 4
	for _, r := range c.segs {
		if r != 0 {
			b += segBytes / uint64(c.pool.at(r).ref)
		}
	}
	return b
}

// LessEq reports c ⊑ o pointwise (the property tests' order check).
func (c *Sparse) LessEq(o *Sparse) bool {
	same := c.pool != nil && c.pool == o.pool
	for i := range c.segs {
		r := c.segs[i]
		if r == 0 {
			continue
		}
		var or segRef
		if i < len(o.segs) {
			or = o.segs[i]
		}
		if same && r == or {
			continue
		}
		s := c.pool.at(r)
		var ov *[SegSize]Time
		if or != 0 {
			ov = &o.pool.at(or).vals
		}
		for j := 0; j < SegSize; j++ {
			v := Time(0)
			if ov != nil {
				v = ov[j]
			}
			if s.vals[j] > v {
				return false
			}
		}
	}
	return true
}

// snapInline is the number of segment references a SparseSnap holds
// inline: 4 segments cover 32 threads, so snapshots on the common
// thread counts need no side allocation at all and live by value
// inside history entries and summaries.
const snapInline = 4

// SparseSnap is one release snapshot in the sparse representation: the
// releaser's epoch (t, lt) plus the segment list of its HB vector
// time, with the own slot allowed to be stale (see the package
// comment). SparseSnap is a value type; its segment list is immutable
// after Snapshot builds it, so copies may freely share the `more`
// backing array — ownership is tracked per segment via refcounts, and
// every copy must go through the store's Assign/Drop.
type SparseSnap struct {
	t      TID
	lt     Time
	n      int32
	inline [snapInline]segRef
	more   []segRef
}

// IsZero reports whether the snapshot is the zero value — dropped or
// never assigned. A zero snapshot holds no segment references, so it
// is always safe to overwrite without a Drop.
func (s *SparseSnap) IsZero() bool {
	if s.t != 0 || s.lt != 0 || s.n != 0 || s.more != nil {
		return false
	}
	return s.inline == [snapInline]segRef{}
}

// seg returns block i's segment reference (0 for an absent block).
func (s *SparseSnap) seg(i int) segRef {
	if i < snapInline {
		return s.inline[i]
	}
	return s.more[i-snapInline]
}

// setSeg installs block i's segment reference (Snapshot only;
// snapshots are immutable afterwards).
func (s *SparseSnap) setSeg(i int, r segRef) {
	if i < snapInline {
		s.inline[i] = r
	} else {
		s.more[i-snapInline] = r
	}
}

// SparseStore is the sparse representation's snapshot store: a shared
// segment pool and the per-thread previous snapshot that release diffs
// share against.
type SparseStore struct {
	pool SegPool
	prev []SparseSnap
	// prevRev[t] is the Clock.Rev value of thread t's clock when its
	// previous snapshot was taken through the slow path. An unchanged
	// rev guarantees every foreign entry is unchanged (the Rev
	// contract), and the own slot is allowed to be stale in segment
	// storage, so the previous snapshot's segments are correct as-is:
	// Snapshot re-issues them in O(1) without reading the view.
	prevRev []uint64
}

// NewSparseStore returns an empty sparse snapshot store.
func NewSparseStore() *SparseStore { return &SparseStore{} }

// NewW implements SnapStore: a zero clock on the store's shared pool.
func (st *SparseStore) NewW() *Sparse { return &Sparse{pool: &st.pool} }

// segEqMasked compares sg against block `base` of view, with entries
// at or past len(view) reading zero and the absolute index skip (the
// releaser's own slot) ignored when it falls inside the block.
func segEqMasked(sg *[SegSize]Time, view []Time, base, skip int) bool {
	for j := 0; j < SegSize; j++ {
		u := base + j
		if u == skip {
			continue
		}
		var v Time
		if u < len(view) {
			v = view[u]
		}
		if sg[j] != v {
			return false
		}
	}
	return true
}

// segEqSkip is segEqMasked for a block entirely inside the view: with
// the virtual-zero tail impossible, the per-word length check drops
// out, leaving a straight compare with one slot (the releaser's own)
// ignored. block must have SegSize entries.
func segEqSkip(sg *[SegSize]Time, block []Time, skip int) bool {
	v := (*[SegSize]Time)(block)
	for j := range sg {
		if j != skip && sg[j] != v[j] {
			return false
		}
	}
	return true
}

// Snapshot implements SnapStore: diff the borrowed view block-wise
// against thread t's previous snapshot, sharing every segment whose
// entries — the own slot excepted — are unchanged, and copying only
// the changed blocks into pool segments. In the steady state of a
// thread releasing repeatedly, only the blocks where a foreign entry
// actually advanced since the previous release cost a segment.
//
// The view is read-only and never retained: interior blocks compare as
// whole arrays; the block holding the own slot and the boundary block
// go through a masked element-wise compare instead, so the view needs
// neither padding nor patching. A shared own-slot block keeps whatever
// stale own time it had — the exact epoch travels out of band in lt
// (the package comment's invariant) — and a copied one takes the exact
// view value, which the invariant equally allows.
func (st *SparseStore) Snapshot(t TID, view Vector, rev uint64, k int) SparseSnap {
	if len(view) > k {
		view = view[:k]
	}
	nb := (k + segMask) >> segShift
	if int(t) >= len(st.prev) {
		st.prev = GrowSlice(st.prev, int(t)+1)
		st.prevRev = GrowSlice(st.prevRev, int(t)+1)
	}
	pv := &st.prev[t]
	if rev == st.prevRev[t] && int(pv.n) == k {
		// Quiet release: no foreign entry of t's clock changed since
		// its previous snapshot over the same thread space, so every
		// block shares by construction — re-issue the previous
		// snapshot's segments without touching the view. Only the own
		// epoch can have moved, and it travels out of band in lt. The
		// first snapshot for t can't land here (pv.n == 0 < k), and
		// `more` aliasing is safe: snapshots are immutable, and the
		// slow path replaces pv.more rather than mutating it.
		lt := view.Get(t)
		snap := SparseSnap{t: t, lt: lt, n: pv.n, inline: pv.inline, more: pv.more}
		pv.lt = lt
		st.retainSnap(pv)
		return snap
	}
	st.prevRev[t] = rev
	pnb := (int(pv.n) + segMask) >> segShift

	snap := SparseSnap{t: t, lt: view.Get(t), n: int32(k)}
	if nb > snapInline {
		snap.more = make([]segRef, nb-snapInline)
	}
	p := &st.pool
	ob := int(t) >> segShift
	full := len(view) >> segShift // blocks entirely inside the view
	// Each new segment's reference count starts at 2 — one for the
	// returned snapshot, one for the thread's diff base — and a shared
	// block nets +1 after the old base's reference is folded in, so
	// the old base needs no separate drop pass.
	miss := false
	for i := 0; i < nb; i++ {
		base := i << segShift
		var pr segRef
		if i < pnb {
			pr = pv.seg(i)
		}
		if pr != 0 {
			ps := p.at(pr)
			var eq bool
			switch {
			case i < full && i != ob:
				eq = ps.vals == [SegSize]Time(view[base:base+SegSize])
			case i < full:
				eq = segEqSkip(&ps.vals, view[base:base+SegSize], int(t)&segMask)
			default:
				eq = segEqMasked(&ps.vals, view, base, int(t))
			}
			if eq {
				ps.ref++
				snap.setSeg(i, pr)
				continue
			}
		}
		miss = true
		sr := p.get()
		sg := p.at(sr)
		sg.ref = 2
		if i < full {
			sg.vals = [SegSize]Time(view[base : base+SegSize])
		} else {
			n := 0
			if base < len(view) {
				n = copy(sg.vals[:], view[base:])
			}
			for j := n; j < SegSize; j++ {
				sg.vals[j] = 0
			}
		}
		p.release(pr)
		snap.setSeg(i, sr)
	}
	for i := nb; i < pnb; i++ { // shrunk thread space (defensive)
		p.release(pv.seg(i))
	}
	// Field-wise update: assigning the whole struct would store the
	// `more` slice unconditionally, and that pointer store costs a
	// write barrier on every release even though more is nil for every
	// thread count the inline segments cover. When every block was
	// shared the references themselves are unchanged too — the common
	// steady state — and only the scalar fields need storing.
	pv.t, pv.lt, pv.n = snap.t, snap.lt, snap.n
	if miss || pnb != nb {
		pv.inline = snap.inline
		if pv.more != nil || snap.more != nil {
			pv.more = snap.more
		}
	}
	return snap
}

// retainSnap takes one extra reference on every segment of s.
func (st *SparseStore) retainSnap(s *SparseSnap) {
	nb := (int(s.n) + segMask) >> segShift
	for i := 0; i < nb; i++ {
		st.pool.retain(s.seg(i))
	}
}

// SnapGet implements SnapStore: the own slot reads from the
// out-of-band epoch (the segment's copy may be stale).
func (st *SparseStore) SnapGet(s *SparseSnap, u TID) Time {
	if u == s.t {
		return s.lt
	}
	if int(u) < 0 || int(u) >= int(s.n) {
		return 0
	}
	r := s.seg(int(u) >> segShift)
	if r == 0 {
		return 0
	}
	return st.pool.at(r).vals[int(u)&segMask]
}

// Assign implements SnapStore: dst becomes a reference-sharing copy of
// src. src's references are taken before dst's are dropped, so
// assigning over a snapshot that already shares segments with src is
// safe.
func (st *SparseStore) Assign(dst, src *SparseSnap) {
	st.retainSnap(src)
	st.Drop(dst)
	*dst = *src
}

// Drop implements SnapStore: release the snapshot's segment references
// and zero it. The `more` backing array is left untouched — other
// snapshot copies may share it (it is immutable), so it is simply
// unreferenced.
func (st *SparseStore) Drop(s *SparseSnap) {
	nb := (int(s.n) + segMask) >> segShift
	for i := 0; i < nb; i++ {
		st.pool.release(s.seg(i))
	}
	*s = SparseSnap{}
}

// FreeCount implements SnapStore.
func (st *SparseStore) FreeCount() int { return len(st.pool.free) }

// SnapHeap implements SnapStore: shared segments are attributed
// fractionally (deterministically, by integer division) so the sum
// over live snapshots approximates the total without depending on
// visitation order or the clock backbone.
func (st *SparseStore) SnapHeap(s *SparseSnap) uint64 {
	b := uint64(len(s.more)) * 4
	nb := (int(s.n) + segMask) >> segShift
	for i := 0; i < nb; i++ {
		if r := s.seg(i); r != 0 {
			b += segBytes / uint64(st.pool.at(r).ref)
		}
	}
	return b
}

// LiveHeap implements SnapStore: the arena knows exactly how many
// segments are live (carved minus parked), so the aggregate answer is
// O(1). The total includes the store's diff bases and the weak clocks
// bound to the pool — the same storage the per-snapshot fractional
// attribution of SnapHeap spreads across individual holders.
func (st *SparseStore) LiveHeap() uint64 {
	carved := uint64(0)
	if st.pool.next > 0 {
		carved = uint64(st.pool.next) - 1
	}
	return (carved - uint64(len(st.pool.free))) * segBytes
}

// Heap implements SnapStore.
func (st *SparseStore) Heap() uint64 {
	return uint64(len(st.pool.free)) * segBytes
}
