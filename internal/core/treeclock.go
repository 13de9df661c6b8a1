// Package core implements the tree clock data structure, the primary
// contribution of the reproduced paper (ASPLOS 2022, Algorithm 2).
//
// A tree clock represents the same vector time as a vector clock, but
// stores it as a rooted tree: each node holds a thread's local time
// (clk) and the time its parent had when it learned that value (aclk,
// the attachment time). The tree records how knowledge was obtained
// transitively, which lets Join and MonotoneCopy skip the parts of the
// timestamp that cannot have changed:
//
//   - direct monotonicity: if a node has not progressed relative to the
//     target clock, none of its descendants have, so the whole subtree
//     is skipped;
//   - indirect monotonicity: children are kept in descending attachment
//     time, so as soon as a child's attachment time is already known to
//     the target, all later siblings are known too and scanning stops.
//
// The layout follows the paper's implementation note ("two arrays of
// length k"): timestamps live in a dense array indexed by thread id,
// exactly like a vector clock, and the tree shape (attachment times and
// intrusive child-list links, kept in descending-aclk order) lives in a
// second array. The thread map is the array index. All traversals are
// iterative.
//
// # The Grow contract
//
// The thread capacity k is a lower bound, not a fixed universe: Grow(k)
// appends zero entries to the clk array and absent (notIn) entries to
// the shape array, preserving the existing tree. Get on a thread at or
// beyond the capacity reports 0 (an unknown thread has the zero local
// time), and Join/MonotoneCopy/CopyCheckMonotone accept operands of any
// capacity, growing the receiver first when the operand is larger.
// Growth never changes the represented vector time, so engines can
// discover threads mid-trace (the streaming runtime in internal/engine
// relies on this) without invalidating any clock state.
//
// # Checkpoints
//
// Save and Load (save.go) carry a clock in checkpoint format v2. Both
// pruning rules above are always on, so the format's per-clock mode
// byte is retired: Save writes 0 and Load rejects any other value.
package core

import (
	"fmt"

	"treeclock/internal/vt"
)

// Sentinels used in the link fields.
const (
	none  vt.TID = -1 // absent link / root parent
	notIn vt.TID = -2 // thread not yet present in the tree
)

// shape is the tree-shape half of one entry: attachment time and the
// intrusive child-list links. Thread identity is the array index.
type shape struct {
	aclk vt.Time // parent's time when this node was attached
	par  vt.TID  // parent thread; none for the root; notIn if absent
	head vt.TID  // first child (largest aclk), none if leaf
	nxt  vt.TID  // next sibling (smaller aclk), none at end
	prv  vt.TID  // previous sibling, none at front
}

// TreeClock is a tree clock over a fixed universe of k threads.
// It implements vt.Clock[*TreeClock].
//
// The zero vector time is represented by an empty tree (root == none);
// this is the state of auxiliary clocks (locks, variables) before their
// first MonotoneCopy, matching the paper's note that only thread clocks
// run Init.
type TreeClock struct {
	k     int32
	root  vt.TID
	nodes int32 // threads present in the tree, kept incrementally (NumNodes)

	// Following the paper's implementation note, the clock is "two
	// arrays of length k": clk holds the integer timestamps exactly
	// like a vector clock (hot, dense — the entire array spans a
	// handful of cache lines), and sh encodes the tree shape (touched
	// only for nodes being repositioned). Join and MonotoneCopy need
	// nothing else: they walk the source in one pass that keeps no
	// stack, so steady-state operations allocate nothing and the clock
	// holds no scratch.
	clk []vt.Time
	sh  []shape

	// rev advances whenever a foreign entry may have changed (see
	// vt.Clock.Rev). Inc and Grow leave it alone: they never touch a
	// foreign entry.
	rev uint64

	stats *vt.WorkStats
}

// Rev implements vt.Clock. The counter is bumped by Join past its O(1)
// no-progress exit, and by every copy path; no-op joins — the common
// case on self-synchronizing workloads — leave it unchanged, which is
// what makes the weak-order snapshot's quiet-release fast path fire.
func (c *TreeClock) Rev() uint64 { return c.rev }

// New returns an empty tree clock over k threads (k may be 0 for a
// clock that grows on demand). If stats is non-nil, every operation
// accumulates work counters into it.
func New(k int, stats *vt.WorkStats) *TreeClock {
	if k < 0 {
		panic("core: tree clock needs a non-negative thread count")
	}
	c := &TreeClock{
		k:     int32(k),
		root:  none,
		clk:   make([]vt.Time, k),
		sh:    make([]shape, k),
		stats: stats,
	}
	for i := range c.sh {
		c.sh[i] = shape{par: notIn, head: none, nxt: none, prv: none}
	}
	return c
}

// Factory returns a capacity-aware vt.Factory producing tree clocks
// sharing stats (which may be nil).
func Factory(stats *vt.WorkStats) vt.Factory[*TreeClock] {
	return func(k int) *TreeClock { return New(k, stats) }
}

// K returns the current thread capacity.
func (c *TreeClock) K() int { return int(c.k) }

// Grow extends the thread capacity to at least k: the clk array gains
// zero entries and the shape array gains absent (notIn) entries, so the
// represented vector time is unchanged. Amortized O(1) per entry.
func (c *TreeClock) Grow(k int) {
	if k <= int(c.k) {
		return
	}
	c.clk = vt.GrowSlice(c.clk, k)
	c.sh = vt.GrowSlice(c.sh, k)
	for i := int(c.k); i < k; i++ {
		c.sh[i] = shape{par: notIn, head: none, nxt: none, prv: none}
	}
	c.k = int32(k)
}

// Root returns the thread at the root, or vt.None for an empty clock.
func (c *TreeClock) Root() vt.TID { return c.root }

// Init makes the clock belong to thread t: t becomes the root with
// local time 0, growing the capacity to at least t+1. Only thread
// clocks are initialized (paper, Init note).
func (c *TreeClock) Init(t vt.TID) {
	if c.root != none {
		panic("core: Init on a non-empty tree clock")
	}
	c.Grow(int(t) + 1)
	c.root = t
	c.sh[t].par = none
	c.nodes++
}

// Get returns the recorded local time of thread t in O(1) (Remark 1).
// Absent threads — including threads at or beyond the capacity — have
// time 0.
func (c *TreeClock) Get(t vt.TID) vt.Time {
	if int(t) >= int(c.k) {
		return 0
	}
	return c.clk[t]
}

// Inc adds d to the owning thread's local time. t must be the root
// thread (the engine's own thread); the parameter mirrors the vector
// clock signature.
func (c *TreeClock) Inc(t vt.TID, d vt.Time) {
	if t != c.root {
		panic("core: Inc on a thread that does not own this clock")
	}
	c.clk[t] += d
	if c.stats != nil {
		c.stats.Entries++
		c.stats.Changed++
	}
}

// ReleaseSlot implements vt.Clock: erase thread t's component, as if
// t had never been seen. Structurally the node is spliced out of the
// tree: its children are reattached to its parent, in place of t in
// the child list, all at t's own attachment time. That preserves both
// tree-clock invariants — the list stays in descending attachment
// order (t's neighbours bracket aclk(t)), and the pruning property
// holds inductively: any clock knowing t's parent at ≥ aclk(t) knew t
// at ≥ clk(t) (the property for t), hence knew each child v at
// ≥ clk(v) (the property for t's children, whose attachment times are
// ≤ clk(t)). Releasing the root (the owning thread) panics; absent or
// out-of-capacity slots are a no-op.
func (c *TreeClock) ReleaseSlot(t vt.TID) {
	if int(t) < 0 || int(t) >= int(c.k) || c.sh[t].par == notIn {
		return
	}
	if t == c.root {
		panic("core: ReleaseSlot on the clock's own thread")
	}
	st := c.sh[t]
	last := st.head
	for v := st.head; v != none; v = c.sh[v].nxt {
		c.sh[v].par = st.par
		c.sh[v].aclk = st.aclk
		last = v
	}
	first := st.head
	if first == none { // leaf: the splice degenerates to an unlink
		first, last = st.nxt, st.prv
	} else {
		c.sh[first].prv = st.prv
		c.sh[last].nxt = st.nxt
		if st.nxt != none {
			c.sh[st.nxt].prv = last
		}
	}
	if st.prv != none {
		c.sh[st.prv].nxt = first
	} else {
		c.sh[st.par].head = first
	}
	if st.head == none && st.nxt != none { // leaf unlink: fix the right link
		c.sh[st.nxt].prv = st.prv
	}
	c.clk[t] = 0
	c.sh[t] = shape{par: notIn, head: none, nxt: none, prv: none}
	c.nodes--
	c.rev++
}

// LessEqFast reports whether this clock's vector time is ⊑ o's using
// only the root entry (O(1)). The test is valid for clocks maintained
// by a partial-order engine, where direct monotonicity (Lemma 3) makes
// the root entry decisive; it is not a general vector comparison — use
// Vector(...).LessEq for arbitrary clocks.
func (c *TreeClock) LessEqFast(o *TreeClock) bool {
	if c.root == none {
		return true
	}
	return c.clk[c.root] <= o.Get(c.root)
}

// Vector writes the represented vector time into dst and returns it.
func (c *TreeClock) Vector(dst vt.Vector) vt.Vector {
	copy(dst, c.clk)
	return dst
}

// VectorView returns the tree clock's flat mirror without copying:
// the clock maintains clk as an exact per-thread image of the tree, so
// the view is O(1). Valid only until the next mutation.
func (c *TreeClock) VectorView() []vt.Time { return c.clk }

// NumNodes returns how many threads are present in the tree. The count
// is maintained incrementally — attaching an absent node adds one,
// ReleaseSlot takes one away, and a deep copy takes the source's count
// — so the call is O(1); it sits on stats paths that may run per event.
func (c *TreeClock) NumNodes() int { return int(c.nodes) }

// String renders the tree in (tid,clk,aclk) form, pre-order. The walk
// is iterative, like every other traversal in this package, so
// degenerate chain-shaped trees of any depth render without growing
// the goroutine stack.
func (c *TreeClock) String() string {
	if c.root == none {
		return "<empty>"
	}
	var out []byte
	type strFrame struct {
		u     vt.TID
		depth int
	}
	stack := []strFrame{{c.root, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := 0; i < f.depth; i++ {
			out = append(out, ' ', ' ')
		}
		if f.u == c.root {
			out = append(out, fmt.Sprintf("(t%d, %d, _)\n", f.u, c.clk[f.u])...)
		} else {
			out = append(out, fmt.Sprintf("(t%d, %d, %d)\n", f.u, c.clk[f.u], c.sh[f.u].aclk)...)
		}
		// Push children in reverse sibling order so the pre-order visit
		// matches the child-list (descending-aclk) order.
		mark := len(stack)
		for v := c.sh[f.u].head; v != none; v = c.sh[v].nxt {
			stack = append(stack, strFrame{v, f.depth + 1})
		}
		for i, j := mark, len(stack)-1; i < j; i, j = i+1, j-1 {
			stack[i], stack[j] = stack[j], stack[i]
		}
	}
	return string(out)
}
