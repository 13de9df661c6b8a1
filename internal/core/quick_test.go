package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"treeclock/internal/vt"
)

// Property-based tests (testing/quick): each check drives a random
// HB/SHB-style protocol derived from a generated seed and asserts the
// data-structure invariants hold throughout.

// protocolRun replays `steps` random protocol operations over k threads,
// l locks and nv variables, mirroring every tree clock with a plain
// vector. It reports false on the first divergence or structural
// violation.
func protocolRun(seed int64, k, l, nv, steps int) bool {
	r := rand.New(rand.NewSource(seed))
	threads := make([]*TreeClock, k)
	mThr := make([]vt.Vector, k)
	var st vt.WorkStats
	for i := range threads {
		threads[i] = New(k, &st)
		threads[i].Init(vt.TID(i))
		mThr[i] = vt.NewVector(k)
	}
	locks := make([]*TreeClock, l)
	mLck := make([]vt.Vector, l)
	holder := make([]int, l)
	for i := range locks {
		locks[i] = New(k, &st)
		mLck[i] = vt.NewVector(k)
		holder[i] = -1
	}
	lw := make([]*TreeClock, nv)
	mLW := make([]vt.Vector, nv)
	for i := range lw {
		lw[i] = New(k, &st)
		mLW[i] = vt.NewVector(k)
	}
	held := make(map[int]int) // lock -> holding thread

	ok := func(c *TreeClock, m vt.Vector) bool {
		if c.Validate() != nil {
			return false
		}
		return c.Vector(vt.NewVector(k)).Equal(m)
	}

	for i := 0; i < steps; i++ {
		t := r.Intn(k)
		threads[t].Inc(vt.TID(t), 1)
		mThr[t][t]++
		switch r.Intn(5) {
		case 0: // local event only
		case 1: // acquire a free lock
			x := r.Intn(l)
			if holder[x] == -1 {
				holder[x] = t
				held[x] = t
				threads[t].Join(locks[x])
				mThr[t].Join(mLck[x])
			}
		case 2: // release a held lock
			for x, h := range held {
				if h == t {
					locks[x].MonotoneCopy(threads[t])
					mLck[x].CopyFrom(mThr[t])
					holder[x] = -1
					delete(held, x)
					if !ok(locks[x], mLck[x]) {
						return false
					}
					break
				}
			}
		case 3: // SHB read
			x := r.Intn(nv)
			threads[t].Join(lw[x])
			mThr[t].Join(mLW[x])
		case 4: // SHB write
			x := r.Intn(nv)
			monotone := lw[x].CopyCheckMonotone(threads[t])
			if monotone != mLW[x].LessEq(mThr[t]) {
				return false
			}
			mLW[x].CopyFrom(mThr[t])
			if !ok(lw[x], mLW[x]) {
				return false
			}
		}
		if !ok(threads[t], mThr[t]) {
			return false
		}
	}
	return st.ForcedRootAttach == 0
}

func TestQuickProtocolEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(9)
		return protocolRun(seed, k, 1+r.Intn(4), 1+r.Intn(4), 400)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: a join really is a least upper bound on the represented
// vector times, and is idempotent.
func TestQuickJoinIsLUB(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(8)
		// Build two clocks via a shared random protocol so their trees
		// are protocol-consistent (arbitrary clocks cannot be joined).
		threads := make([]*TreeClock, k)
		for i := range threads {
			threads[i] = New(k, nil)
			threads[i].Init(vt.TID(i))
		}
		lock := New(k, nil)
		holder := -1
		for i := 0; i < 200; i++ {
			t0 := r.Intn(k)
			threads[t0].Inc(vt.TID(t0), 1)
			switch {
			case holder == -1 && r.Intn(2) == 0:
				threads[t0].Join(lock) // acquire
				holder = t0
			case holder == t0:
				lock.MonotoneCopy(threads[t0]) // release (Lemma 2 holds)
				holder = -1
			}
		}
		a, b := threads[0], threads[1]
		va := a.Vector(vt.NewVector(k))
		vb := b.Vector(vt.NewVector(k))
		want := va.Clone()
		want.Join(vb)
		a.Join(b)
		got := a.Vector(vt.NewVector(k))
		if !got.Equal(want) {
			return false
		}
		a.Join(b) // idempotent
		return a.Vector(vt.NewVector(k)).Equal(want) && a.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
