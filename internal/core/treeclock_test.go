package core

import (
	"testing"

	"treeclock/internal/vt"
)

func vecOf(c *TreeClock) vt.Vector { return c.Vector(vt.NewVector(c.K())) }

func TestEmptyClock(t *testing.T) {
	c := New(4, nil)
	if c.Root() != vt.None {
		t.Errorf("empty clock root = %d", c.Root())
	}
	if got := c.Get(2); got != 0 {
		t.Errorf("Get on empty clock = %d, want 0", got)
	}
	if !vecOf(c).Equal(vt.Vector{0, 0, 0, 0}) {
		t.Errorf("empty clock vector = %v", vecOf(c))
	}
	if err := c.Validate(); err != nil {
		t.Errorf("empty clock invalid: %v", err)
	}
	if c.String() != "<empty>" {
		t.Errorf("String() = %q", c.String())
	}
	if c.NumNodes() != 0 {
		t.Errorf("NumNodes = %d", c.NumNodes())
	}
}

func TestInitIncGet(t *testing.T) {
	c := New(3, nil)
	c.Init(1)
	c.Inc(1, 1)
	c.Inc(1, 2)
	if got := c.Get(1); got != 3 {
		t.Errorf("Get(1) = %d, want 3", got)
	}
	if c.Root() != 1 {
		t.Errorf("Root = %d, want 1", c.Root())
	}
	if err := c.Validate(); err != nil {
		t.Errorf("invalid: %v", err)
	}
	if c.NumNodes() != 1 {
		t.Errorf("NumNodes = %d, want 1", c.NumNodes())
	}
}

func TestNewPanicsOnNegativeThreads(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1, nil) must panic")
		}
	}()
	New(-1, nil)
}

func TestDoubleInitPanics(t *testing.T) {
	c := New(2, nil)
	c.Init(0)
	defer func() {
		if recover() == nil {
			t.Error("second Init must panic")
		}
	}()
	c.Init(1)
}

func TestIncWrongThreadPanics(t *testing.T) {
	c := New(2, nil)
	c.Init(0)
	defer func() {
		if recover() == nil {
			t.Error("Inc on non-owner thread must panic")
		}
	}()
	c.Inc(1, 1)
}

func TestJoinFromEmptyIsNoop(t *testing.T) {
	a := New(2, nil)
	a.Init(0)
	a.Inc(0, 3)
	empty := New(2, nil)
	a.Join(empty)
	if !vecOf(a).Equal(vt.Vector{3, 0}) {
		t.Errorf("join with empty changed vector: %v", vecOf(a))
	}
}

func TestJoinIntoEmptyDeepCopies(t *testing.T) {
	a := New(3, nil)
	a.Init(0)
	a.Inc(0, 2)
	b := New(3, nil)
	b.Join(a)
	if !vecOf(b).Equal(vt.Vector{2, 0, 0}) {
		t.Errorf("join into empty: %v", vecOf(b))
	}
	if b.Root() != 0 {
		t.Errorf("root after deep copy = %d", b.Root())
	}
	if err := b.Validate(); err != nil {
		t.Errorf("invalid: %v", err)
	}
}

func TestSelfJoinAndSelfCopy(t *testing.T) {
	a := New(2, nil)
	a.Init(1)
	a.Inc(1, 4)
	a.Join(a)
	a.MonotoneCopy(a)
	if !vecOf(a).Equal(vt.Vector{0, 4}) {
		t.Errorf("self ops changed vector: %v", vecOf(a))
	}
}

func TestJoinFuturePanics(t *testing.T) {
	// A foreign clock claiming a later time for our own thread is a
	// protocol violation and must panic rather than corrupt the tree.
	a := New(2, nil)
	a.Init(0)
	a.Inc(0, 1)
	b := New(2, nil)
	b.Init(0)
	b.Inc(0, 5)
	defer func() {
		if recover() == nil {
			t.Error("joining our own future must panic")
		}
	}()
	a.Join(b)
}

func TestMonotoneCopyIntoEmpty(t *testing.T) {
	a := New(3, nil)
	a.Init(2)
	a.Inc(2, 1)
	lock := New(3, nil) // auxiliary clock: never Init'ed
	lock.MonotoneCopy(a)
	if !vecOf(lock).Equal(vt.Vector{0, 0, 1}) {
		t.Errorf("copy into empty: %v", vecOf(lock))
	}
	if lock.Root() != 2 {
		t.Errorf("root = %d, want 2", lock.Root())
	}
	if err := lock.Validate(); err != nil {
		t.Errorf("invalid: %v", err)
	}
}

func TestCopyFromEmptyIsNoop(t *testing.T) {
	a := New(2, nil)
	a.Init(0)
	a.Inc(0, 2)
	empty := New(2, nil)
	a.MonotoneCopy(empty)
	if !vecOf(a).Equal(vt.Vector{2, 0}) {
		t.Errorf("copy from empty changed vector: %v", vecOf(a))
	}
}

// sync performs the paper's sync(ℓ) shorthand for thread t: one event
// that acquires and releases ℓ (local time +1, join, monotone copy).
func sync(threads []*TreeClock, locks []*TreeClock, t, l int) {
	threads[t].Inc(vt.TID(t), 1)
	threads[t].Join(locks[l])
	locks[l].MonotoneCopy(threads[t])
}

// TestFigure2aDirectMonotonicity replays the trace of Figure 2a and
// checks that thread t4's tree clock matches Figure 3 (left).
// Threads are 0-indexed: paper's t1..t4 are 0..3, ℓ1..ℓ3 are 0..2.
func TestFigure2aDirectMonotonicity(t *testing.T) {
	threads := make([]*TreeClock, 4)
	locks := make([]*TreeClock, 3)
	for i := range threads {
		threads[i] = New(4, nil)
		threads[i].Init(vt.TID(i))
	}
	for i := range locks {
		locks[i] = New(4, nil)
	}
	sync(threads, locks, 0, 0) // e1: t1 sync(ℓ1)
	sync(threads, locks, 1, 0) // e2: t2 sync(ℓ1)
	sync(threads, locks, 2, 0) // e3: t3 sync(ℓ1)
	sync(threads, locks, 1, 1) // e4: t2 sync(ℓ2)
	sync(threads, locks, 3, 1) // e5: t4 sync(ℓ2)
	sync(threads, locks, 2, 2) // e6: t3 sync(ℓ3)
	sync(threads, locks, 3, 2) // e7: t4 sync(ℓ3)

	c := threads[3]
	if err := c.Validate(); err != nil {
		t.Fatalf("invalid tree: %v", err)
	}
	// Figure 3 (left): root (t4,2,⊥) with children (t3,2,2), (t2,2,1);
	// t2 has child (t1,1,1).
	if !vecOf(c).Equal(vt.Vector{1, 2, 2, 2}) {
		t.Fatalf("t4 vector = %v, want [1, 2, 2, 2]", vecOf(c))
	}
	if c.Root() != 3 {
		t.Fatalf("root = %d", c.Root())
	}
	if c.sh[3].head != 2 || c.sh[2].nxt != 1 || c.sh[1].nxt != none {
		t.Errorf("root children = %d -> %d (want t3 then t2)\n%s", c.sh[3].head, c.sh[c.sh[3].head].nxt, c)
	}
	if c.sh[2].aclk != 2 || c.sh[1].aclk != 1 {
		t.Errorf("aclk(t3)=%d aclk(t2)=%d, want 2 and 1\n%s", c.sh[2].aclk, c.sh[1].aclk, c)
	}
	if c.sh[1].head != 0 || c.sh[0].aclk != 1 || c.clk[0] != 1 {
		t.Errorf("t2 subtree wrong: head=%d\n%s", c.sh[1].head, c)
	}
	if c.sh[2].head != none {
		t.Errorf("t3 should be a leaf\n%s", c)
	}
}

// TestFigure2bIndirectMonotonicity replays the trace of Figure 2b and
// checks thread t4's tree clock against Figure 3 (right), exercising
// the sibling early-break.
func TestFigure2bIndirectMonotonicity(t *testing.T) {
	threads := make([]*TreeClock, 4)
	locks := make([]*TreeClock, 3)
	for i := range threads {
		threads[i] = New(4, nil)
		threads[i].Init(vt.TID(i))
	}
	for i := range locks {
		locks[i] = New(4, nil)
	}
	sync(threads, locks, 0, 0) // e1: t1 sync(ℓ1)
	sync(threads, locks, 2, 0) // e2: t3 sync(ℓ1)
	sync(threads, locks, 1, 1) // e3: t2 sync(ℓ2)
	sync(threads, locks, 2, 1) // e4: t3 sync(ℓ2)
	sync(threads, locks, 3, 1) // e5: t4 sync(ℓ2)
	sync(threads, locks, 2, 2) // e6: t3 sync(ℓ3)
	sync(threads, locks, 3, 2) // e7: t4 sync(ℓ3)

	c := threads[3]
	if err := c.Validate(); err != nil {
		t.Fatalf("invalid tree: %v", err)
	}
	// Figure 3 (right): root (t4,2,⊥), child (t3,3,2); t3's children
	// (t2,1,2) then (t1,1,1).
	if !vecOf(c).Equal(vt.Vector{1, 1, 3, 2}) {
		t.Fatalf("t4 vector = %v, want [1, 1, 3, 2]", vecOf(c))
	}
	if c.sh[3].head != 2 || c.sh[2].nxt != none {
		t.Fatalf("root must have the single child t3\n%s", c)
	}
	if c.clk[2] != 3 || c.sh[2].aclk != 2 {
		t.Errorf("t3 node = (%d, %d), want (3, 2)\n%s", c.clk[2], c.sh[2].aclk, c)
	}
	if c.sh[2].head != 1 || c.sh[1].nxt != 0 || c.sh[0].nxt != none {
		t.Errorf("t3 children must be t2 then t1\n%s", c)
	}
	if c.sh[1].aclk != 2 || c.sh[0].aclk != 1 {
		t.Errorf("aclk(t2)=%d aclk(t1)=%d, want 2 and 1\n%s", c.sh[1].aclk, c.sh[0].aclk, c)
	}
}

// TestIndirectBreakSavesWork verifies that the e7 sync of Figure 2b
// stops at the first already-known sibling: with work counters on, the
// sync (increment, join and monotone copy) touches exactly 7 entries.
// Scanning each sibling list to the end instead touches 8, so the pin
// catches a lost break.
func TestIndirectBreakSavesWork(t *testing.T) {
	var st vt.WorkStats
	threads := make([]*TreeClock, 4)
	locks := make([]*TreeClock, 3)
	for i := range threads {
		threads[i] = New(4, &st)
		threads[i].Init(vt.TID(i))
	}
	for i := range locks {
		locks[i] = New(4, &st)
	}
	sync(threads, locks, 0, 0)
	sync(threads, locks, 2, 0)
	sync(threads, locks, 1, 1)
	sync(threads, locks, 2, 1)
	sync(threads, locks, 3, 1)
	sync(threads, locks, 2, 2)
	st.Reset() // isolate e7
	sync(threads, locks, 3, 2)
	if st.Entries != 7 {
		t.Errorf("e7 touched %d entries, want 7 (8 means the sibling break did not fire)", st.Entries)
	}
}

func TestCopyCheckMonotoneFallsBackToDeepCopy(t *testing.T) {
	var st vt.WorkStats
	a := New(3, &st)
	a.Init(0)
	a.Inc(0, 2)
	b := New(3, &st)
	b.Init(1)
	b.Inc(1, 5)
	// a = [2,0,0], b = [0,5,0]: incomparable.
	if a.CopyCheckMonotone(b) {
		t.Error("copy must report non-monotone")
	}
	if st.DeepCopies != 1 {
		t.Errorf("DeepCopies = %d, want 1", st.DeepCopies)
	}
	if !vecOf(a).Equal(vt.Vector{0, 5, 0}) {
		t.Errorf("vector after deep copy: %v", vecOf(a))
	}
	if a.Root() != 1 {
		t.Errorf("root after deep copy = %d", a.Root())
	}
	if err := a.Validate(); err != nil {
		t.Errorf("invalid: %v", err)
	}
}

func TestLessEqFast(t *testing.T) {
	a := New(2, nil)
	a.Init(0)
	a.Inc(0, 1)
	b := New(2, nil)
	b.Init(1)
	b.Inc(1, 1)
	b.Join(a) // b = [1,1] rooted at t1
	if !a.LessEqFast(b) {
		t.Error("a ⊑ b must hold")
	}
	if b.LessEqFast(a) {
		t.Error("b ⊑ a must not hold")
	}
	empty := New(2, nil)
	if !empty.LessEqFast(a) {
		t.Error("empty ⊑ anything")
	}
}

func TestVectorSnapshotAfterOps(t *testing.T) {
	a := New(3, nil)
	a.Init(0)
	b := New(3, nil)
	b.Init(1)
	a.Inc(0, 1)
	b.Inc(1, 1)
	b.Join(a)
	a.Inc(0, 1)
	b.Inc(1, 1)
	a.Join(b)
	want := vt.Vector{2, 2, 0}
	if !vecOf(a).Equal(want) {
		t.Errorf("a = %v, want %v", vecOf(a), want)
	}
	if err := a.Validate(); err != nil {
		t.Errorf("invalid: %v", err)
	}
}

func TestStringRendersTree(t *testing.T) {
	a := New(2, nil)
	a.Init(0)
	a.Inc(0, 1)
	b := New(2, nil)
	b.Init(1)
	b.Inc(1, 1)
	b.Join(a)
	s := b.String()
	if s == "" || s == "<empty>" {
		t.Errorf("String() = %q", s)
	}
}
