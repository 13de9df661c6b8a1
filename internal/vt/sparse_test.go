package vt

// Isolation coverage for the sparse weak-clock representation: every
// operation is checked against the flat-vector reference model —
// directed cases for the sharing edges, testing/quick properties over
// random op sequences (mirroring vector_test.go), and a fuzz harness
// that interprets byte programs over a (Sparse, Vector) pair. The
// snapshot store is exercised the way internal/wcp drives it:
// monotonically growing per-thread release vectors, diffed, absorbed,
// dropped and recycled.

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// sparseOf builds a sparse clock holding exactly v.
func sparseOf(v Vector) *Sparse {
	c := NewSparse(len(v))
	for t := range v {
		c.SetMax(TID(t), v[t])
	}
	return c
}

// flatOf materializes c at length n for comparison against a model.
func flatOf(c *Sparse, n int) Vector {
	if c.Len() > n {
		n = c.Len()
	}
	return c.Vector(NewVector(n))
}

func TestSparseGetSetMaxBasics(t *testing.T) {
	c := NewSparse(0)
	if c.Len() != 0 || c.Get(3) != 0 || c.Get(-1) != 0 {
		t.Fatalf("zero clock not empty: len %d", c.Len())
	}
	c.SetMax(10, 7) // crosses a segment boundary from nothing
	if c.Len() != 11 || c.Get(10) != 7 || c.Get(9) != 0 {
		t.Fatalf("SetMax(10,7): len %d, Get(10) %d, Get(9) %d", c.Len(), c.Get(10), c.Get(9))
	}
	c.SetMax(10, 3) // lower value must not regress
	if c.Get(10) != 7 {
		t.Fatalf("SetMax with smaller value regressed entry to %d", c.Get(10))
	}
}

func TestSparseJoinSharesDominatedSegments(t *testing.T) {
	a := sparseOf(Vector{1, 2, 3, 4, 5, 6, 7, 8, 9})
	b := NewSparse(0)
	b.Join(a) // b trails a: every block should be adopted by reference
	if b.pool != a.pool {
		t.Fatal("empty clock did not adopt the operand's pool on first join")
	}
	for i := range b.segs {
		if b.segs[i] != a.segs[i] {
			t.Fatalf("block %d copied instead of shared on dominated join", i)
		}
		if ref := b.pool.at(b.segs[i]).ref; ref != 2 {
			t.Fatalf("block %d ref %d after share, want 2", i, ref)
		}
	}
	// Mutating b now must copy-on-write, leaving a intact.
	b.SetMax(0, 100)
	if a.Get(0) != 1 {
		t.Fatalf("COW violated: a.Get(0) = %d after mutating the sharing clock", a.Get(0))
	}
	if b.segs[0] == a.segs[0] || a.pool.at(a.segs[0]).ref != 1 {
		t.Fatalf("block 0 still shared after write (refs a=%d)", a.pool.at(a.segs[0]).ref)
	}
}

func TestSparseCopyFromZeroesTail(t *testing.T) {
	c := sparseOf(Vector{9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	o := sparseOf(Vector{1, 2})
	c.CopyFrom(o)
	want := Vector{1, 2, 0, 0, 0, 0, 0, 0, 0, 0}
	if got := flatOf(c, 10); !got.Equal(want) {
		t.Fatalf("CopyFrom left %v, want %v", got, want)
	}
}

func TestSparseVectorZeroesNilBlocks(t *testing.T) {
	c := NewSparse(12) // all blocks nil
	dst := Vector{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}
	got := c.Vector(dst)
	for i, v := range got {
		if v != 0 {
			t.Fatalf("entry %d = %d in materialization of empty clock", i, v)
		}
	}
}

// Property: Join/SetMax/CopyFrom/LessEq agree with the flat model over
// random op sequences. One op raises an entry past its current value
// through SetMax, the update Absorb applies to a releaser's own slot.
func TestSparseMatchesFlatModel(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		k := 1 + rr.Intn(40) // spans 1–5 segments
		c, model := NewSparse(0), NewVector(k)
		other, otherModel := NewSparse(0), NewVector(k)
		for op := 0; op < 60; op++ {
			switch rr.Intn(6) {
			case 0:
				tid, v := TID(rr.Intn(k)), Time(rr.Intn(50))
				c.SetMax(tid, v)
				if model[tid] < v {
					model[tid] = v
				}
			case 1:
				tid, d := TID(rr.Intn(k)), Time(1+rr.Intn(3))
				c.SetMax(tid, model[tid]+d)
				model[tid] += d
			case 2:
				tid, v := TID(rr.Intn(k)), Time(rr.Intn(50))
				other.SetMax(tid, v)
				if otherModel[tid] < v {
					otherModel[tid] = v
				}
			case 3:
				c.Join(other)
				model.Join(otherModel)
			case 4:
				c.CopyFrom(other)
				copy(model, otherModel)
			case 5:
				if c.LessEq(other) != model.LessEq(otherModel) {
					return false
				}
			}
			if cm := flatOf(c, k); !cm.Equal(model) {
				return false
			}
		}
		return flatOf(other, k).Equal(otherModel)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the snapshot store round-trips release vectors exactly —
// SnapGet reads back h, and Absorb equals a flat join — under the
// engine's access pattern (per-thread monotone release vectors, with
// the own entry advancing fastest, snapshots dropped and recycled).
func TestSparseStoreMatchesFlatModel(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		k := 2 + rr.Intn(30)
		st := NewSparseStore()
		w := st.NewW()
		model := NewVector(k)
		hb := make([]Vector, k) // per-thread monotone HB vectors
		for t := range hb {
			hb[t] = NewVector(k)
		}
		var snaps []SparseSnap
		var snapModels []Vector
		for rel := 0; rel < 40; rel++ {
			t := TID(rr.Intn(k))
			// Advance t's HB knowledge: own entry always, a few foreign
			// entries sometimes (the star/mixed shapes in miniature).
			hb[t][t] += Time(1 + rr.Intn(3))
			for m := rr.Intn(3); m > 0; m-- {
				u := rr.Intn(k)
				hb[t][u] += Time(rr.Intn(2))
			}
			// The vector changed, so a fresh rev is the honest input
			// (the fast path has its own dedicated test below).
			snap := st.Snapshot(t, hb[t], uint64(rel+1), k)
			for u := 0; u < k; u++ {
				if st.SnapGet(&snap, TID(u)) != hb[t][u] {
					return false
				}
			}
			snaps = append(snaps, snap)
			snapModels = append(snapModels, hb[t].Clone())
			// Absorb a random retained snapshot into the weak clock.
			i := rr.Intn(len(snaps))
			w.Absorb(&snaps[i])
			model.Join(snapModels[i])
			if got := flatOf(w, k); !got.Equal(model) {
				return false
			}
			// Occasionally drop the oldest retained snapshot (history
			// compaction) or replace a contribution (rule-a summary).
			if len(snaps) > 3 && rr.Intn(2) == 0 {
				st.Drop(&snaps[0])
				snaps = snaps[1:]
				snapModels = snapModels[1:]
			}
			if len(snaps) > 1 && rr.Intn(3) == 0 {
				st.Assign(&snaps[0], &snaps[len(snaps)-1])
				snapModels[0] = snapModels[len(snapModels)-1].Clone()
			}
		}
		// Snapshots must have stayed immutable through all the clock
		// traffic above.
		for i := range snaps {
			for u := 0; u < k; u++ {
				if st.SnapGet(&snaps[i], TID(u)) != snapModels[i][u] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// A snapshot's segments stay valid after its releaser keeps running:
// the store's prev cache shares segments with retained history entries,
// and later snapshots must copy-on-diff, never mutate.
func TestSparseSnapshotImmutableAcrossReleases(t *testing.T) {
	st := NewSparseStore()
	k := 10
	h := NewVector(k)
	h[0], h[5], h[9] = 3, 7, 1
	first := st.Snapshot(0, h, 1, k)

	h[0], h[5], h[9] = 8, 7, 2 // own entry and one foreign entry moved
	second := st.Snapshot(0, h, 2, k)

	for u, want := range map[TID]Time{0: 3, 5: 7, 9: 1} {
		if got := st.SnapGet(&first, u); got != want {
			t.Errorf("first snapshot entry %d mutated: got %d, want %d", u, got, want)
		}
	}
	if got := st.SnapGet(&second, 9); got != 2 {
		t.Errorf("second snapshot entry 9 = %d, want 2", got)
	}
	// Block 0 differs only in the own slot → shared by reference.
	if first.seg(0) != second.seg(0) {
		t.Error("own-slot-only change did not share the segment")
	}
	// But the epoch reads exactly.
	if st.SnapGet(&second, 0) != 8 || st.SnapGet(&first, 0) != 3 {
		t.Errorf("own-slot epochs wrong: first %d, second %d",
			st.SnapGet(&first, 0), st.SnapGet(&second, 0))
	}
}

// The quiet-release fast path: an unchanged rev over an unchanged
// thread space re-issues the previous snapshot's segments in O(1),
// while the out-of-band epoch still tracks the view. A changed rev or
// a grown thread space must fall back to the diff.
func TestSparseSnapshotQuietReleaseFastPath(t *testing.T) {
	st := NewSparseStore()
	k := 10
	h := NewVector(k)
	h[0], h[5], h[9] = 3, 7, 1
	first := st.Snapshot(0, h, 1, k)

	// Only the own entry moves, rev unchanged: every segment shares.
	h[0] = 12
	second := st.Snapshot(0, h, 1, k)
	for i := 0; i < (k+segMask)>>segShift; i++ {
		if first.seg(i) != second.seg(i) {
			t.Errorf("quiet release did not share block %d", i)
		}
	}
	if got := st.SnapGet(&second, 0); got != 12 {
		t.Errorf("own epoch after quiet release = %d, want 12", got)
	}
	for u, want := range map[TID]Time{5: 7, 9: 1} {
		if got := st.SnapGet(&second, u); got != want {
			t.Errorf("quiet-release entry %d = %d, want %d", u, got, want)
		}
	}

	// A foreign entry moves and rev advances: the changed block copies,
	// the rest still share, and the earlier snapshots stay immutable.
	h[9] = 4
	third := st.Snapshot(0, h, 2, k)
	if third.seg(1) == second.seg(1) {
		t.Error("changed block shared across rev advance")
	}
	if third.seg(0) != second.seg(0) {
		t.Error("unchanged block stopped sharing across rev advance")
	}
	if got := st.SnapGet(&third, 9); got != 4 {
		t.Errorf("third snapshot entry 9 = %d, want 4", got)
	}
	if st.SnapGet(&first, 0) != 3 || st.SnapGet(&second, 9) != 1 {
		t.Error("earlier snapshots mutated")
	}

	// Same rev but a grown thread space: the size gate forces the diff.
	big := NewVector(2 * k)
	copy(big, h)
	big[k+3] = 5
	fourth := st.Snapshot(0, big, 2, 2*k)
	if got := st.SnapGet(&fourth, TID(k+3)); got != 5 {
		t.Errorf("post-grow snapshot entry %d = %d, want 5", k+3, got)
	}

	// The shared segments survive dropping any one holder.
	st.Drop(&second)
	if st.SnapGet(&first, 5) != 7 || st.SnapGet(&third, 5) != 7 {
		t.Error("dropping the quiet-release snapshot corrupted its siblings")
	}
	st.Drop(&first)
	st.Drop(&third)
	st.Drop(&fourth)
}

// Dropped snapshots recycle their unshared segments through the pool.
func TestSparseStoreRecyclesSegments(t *testing.T) {
	st := NewSparseStore()
	k := 8
	var snaps []SparseSnap
	h := NewVector(k)
	for i := 0; i < 6; i++ {
		for j := range h {
			h[j] = Time(10*i + j + 1) // every block changes every time
		}
		snaps = append(snaps, st.Snapshot(0, h, uint64(i+1), k))
	}
	if st.FreeCount() != 0 {
		t.Fatalf("pool non-empty before drops: %d", st.FreeCount())
	}
	for i := range snaps[:5] {
		st.Drop(&snaps[i])
	}
	if st.FreeCount() == 0 {
		t.Fatal("dropping unshared snapshots recycled nothing")
	}
	if st.Heap() == 0 {
		t.Fatal("store Heap reports 0 with parked segments")
	}
	free := st.FreeCount()
	h = NewVector(k)
	h[3] = 999
	snaps = append(snaps, st.Snapshot(1, h, 1, k))
	if st.FreeCount() >= free {
		t.Fatalf("fresh snapshot did not draw from the pool: %d -> %d", free, st.FreeCount())
	}
}

// The flat store's regrow fix (the free-list accounting bug): a parked
// buffer whose capacity went stale after mid-stream thread growth must
// be re-grown and reused, not discarded.
func TestFlatStoreSnapshotRegrowsStaleBuffers(t *testing.T) {
	st := NewFlatStore()
	small := Vector{1, 2, 3, 4}
	st.Drop(&small)
	if st.FreeCount() != 1 {
		t.Fatalf("FreeCount = %d after one Drop", st.FreeCount())
	}
	view := Vector{9, 8} // thread space grew past the parked capacity
	v := st.Snapshot(0, view, 1, 16)
	if st.FreeCount() != 0 {
		t.Fatalf("stale buffer was not consumed: FreeCount = %d", st.FreeCount())
	}
	if len(v) != 16 {
		t.Fatalf("regrown snapshot has length %d, want 16", len(v))
	}
	for i, x := range v {
		want := Time(0)
		if i < len(view) {
			want = view[i]
		}
		if x != want {
			t.Fatalf("regrown snapshot wrong at %d: got %d, want %d", i, x, want)
		}
	}
	// Once regrown, the buffer recycles at full size: no allocation and
	// no capacity loss on the next cycle.
	st.Drop(&v)
	u := st.Snapshot(0, view, 2, 16)
	if cap(u) < 16 || st.FreeCount() != 0 {
		t.Fatalf("buffer did not recycle at full size (cap %d, free %d)", cap(u), st.FreeCount())
	}
}

// FuzzSparseOps interprets the fuzz input as a program over a (Sparse,
// Vector) pair — the fuzz companion to TestSparseMatchesFlatModel,
// letting the engine find op interleavings the random walks miss
// (segment-boundary growth mid-join, copy-after-share chains, …).
func FuzzSparseOps(f *testing.F) {
	f.Add([]byte{0x00, 0x13, 0x27, 0x33, 0x41, 0x52})
	f.Add([]byte{0x3f, 0x3f, 0x4f, 0x0f, 0x1f, 0x2f, 0x5f})
	f.Fuzz(func(t *testing.T, prog []byte) {
		const k = 24 // 3 segments
		c, model := NewSparse(0), NewVector(k)
		other, otherModel := NewSparse(0), NewVector(k)
		for pc := 0; pc < len(prog); pc++ {
			b := prog[pc]
			op, arg := b>>4, int(b&0x0f)
			tid := TID(arg * k / 16)
			switch op & 0x7 {
			case 0:
				c.SetMax(tid, Time(arg))
				if model[tid] < Time(arg) {
					model[tid] = Time(arg)
				}
			case 1:
				c.SetMax(tid, model[tid]+Time(1+arg))
				model[tid] += Time(1 + arg)
			case 2:
				other.SetMax(tid, Time(arg*3))
				if otherModel[tid] < Time(arg*3) {
					otherModel[tid] = Time(arg * 3)
				}
			case 3:
				c.Join(other)
				model.Join(otherModel)
			case 4:
				other.Join(c)
				otherModel.Join(model)
			case 5:
				c.CopyFrom(other)
				copy(model, otherModel)
			case 6:
				if c.LessEq(other) != model.LessEq(otherModel) {
					t.Fatalf("LessEq diverged at pc %d", pc)
				}
			case 7:
				if got, want := c.Get(tid), model[tid]; got != want {
					t.Fatalf("Get(%d) = %d, model %d at pc %d", tid, got, want, pc)
				}
			}
		}
		if got := flatOf(c, k); !got.Equal(model) {
			t.Fatalf("clock diverged from model:\n got %v\nwant %v", got, model)
		}
		if got := flatOf(other, k); !got.Equal(otherModel) {
			t.Fatalf("other clock diverged from model:\n got %v\nwant %v", got, otherModel)
		}
	})
}
