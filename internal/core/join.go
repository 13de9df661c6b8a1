package core

import "treeclock/internal/vt"

// This file implements the paper's Algorithm 2: Join, MonotoneCopy and
// the helper routines getUpdatedNodesJoin / getUpdatedNodesCopy /
// detachNodes / attachNodes / pushChild. Two implementation choices
// beyond the paper's pseudocode (its own implementation applies the
// same ideas: "recursive routines have been made iterative", "two
// arrays of length k"):
//
//   - The three routines are one pre-order pass over the source tree
//     (update). A node that has progressed is unlinked from the
//     receiver the moment it is found and linked under its source
//     parent, behind the children already linked there. Siblings are
//     found in descending attachment order, so every rebuilt child
//     list keeps that order, and the kept children (attached earlier,
//     hence with smaller attachment times — indirect monotonicity's
//     contrapositive) stay behind them. Interleaving the moves is safe
//     because the scan reads only the source's links, and each move
//     leaves every child list of the receiver a consistent
//     doubly-linked list.
//   - The pass keeps no stack and no buffer. When a node's child scan
//     ends, it climbs back through the source's own par link and goes
//     on at the node's next sibling. An inner node's new time is
//     written only when its child scan ends, so the sibling break of
//     its children still reads the receiver's old time.
//
// Both keep the operation-for-operation behaviour of Algorithm 2 (the
// same nodes are compared, detached and attached); the model-based,
// differential and work-count tests pin that down.

// Join updates the clock to the pointwise maximum with o (c ← c ⊔ o).
//
// The traversal of o visits only nodes that may carry new information:
// it descends into a child only when that thread has progressed relative
// to c (direct monotonicity) and stops scanning a sibling list once an
// attachment time is already known to c (indirect monotonicity), so the
// cost is proportional to the entries being updated rather than Θ(k).
func (c *TreeClock) Join(o *TreeClock) {
	if o == c || o.root == none {
		return
	}
	zr := o.root
	if c.stats != nil {
		c.stats.Joins++
		c.stats.Entries++ // root progress test
	}
	if o.clk[zr] <= c.Get(zr) {
		// o's root has not progressed; by direct monotonicity
		// nothing in o is new (Algorithm 2, line 18).
		return
	}
	// Past the no-progress exit some foreign entry changes (zr ≠ this
	// clock's thread — see the panic below).
	c.rev++
	if c.root == none {
		// Joining into the zero vector time is a plain copy.
		c.deepCopyFrom(o)
		return
	}
	c.Grow(int(o.k))
	if zr == c.root {
		// Another clock claims a later local time for this clock's
		// own thread: knowledge of a thread always originates from
		// that thread's clock, so this cannot happen in a correct
		// protocol. Fail loudly rather than corrupt the tree.
		panic("core: Join source knows the receiver's own thread's future")
	}
	c.update(o, none)
	// Place the updated subtree under the root, at the front of its
	// child list (its attachment time is the current root time, the
	// largest so far, preserving the descending-aclk order).
	c.pushChild(zr, c.root, c.clk[c.root])
}

// MonotoneCopy overwrites the clock with o, assuming this ⊑ o (Lemma 2
// guarantees the precondition at lock-release events). The traversal
// prunes exactly like Join; additionally the old root is repositioned so
// the new tree is rooted at o's thread.
func (c *TreeClock) MonotoneCopy(o *TreeClock) {
	if o == c || o.root == none {
		return
	}
	c.rev++
	if c.root == none {
		c.deepCopyFrom(o)
		return
	}
	c.Grow(int(o.k))
	if c.stats != nil {
		c.stats.Copies++
	}
	oldRoot := c.root
	sawOldRoot := c.update(o, oldRoot)
	c.root = o.root
	if c.sh[c.root].par == notIn {
		c.nodes++
	}
	c.sh[c.root].par = none
	if !sawOldRoot && oldRoot != c.root {
		// Defensive: the traversal never visited the old root, which
		// would leave it dangling. Under the paper's protocols this
		// cannot happen (the old root is always reachable before any
		// sibling break — see Lemma 5); re-attach it conservatively
		// under the new root. An inflated attachment time only makes
		// future traversals prune less, never incorrectly.
		c.pushChild(oldRoot, c.root, c.clk[c.root])
		if c.stats != nil {
			c.stats.ForcedRootAttach++
		}
	}
}

// CopyCheckMonotone overwrites the clock with o without assuming
// monotonicity. The O(1) root test (direct monotonicity) decides
// whether the sublinear MonotoneCopy applies; otherwise it falls back to
// a full deep copy. The boolean result is false exactly when the copy
// was not monotone, which in the SHB algorithm signals a write-write
// race, bounding the number of deep copies by the number of such races.
func (c *TreeClock) CopyCheckMonotone(o *TreeClock) bool {
	if c.root == none || (o.root != none && c.clk[c.root] <= o.Get(c.root)) {
		c.MonotoneCopy(o)
		return true
	}
	if c.stats != nil {
		c.stats.DeepCopies++
	}
	c.deepCopyFrom(o)
	return false
}

// update performs getUpdatedNodes, detachNodes and attachNodes in one
// pre-order pass over o. It visits only the nodes that may carry new
// information, moves each progressed node from its place in c to its
// place in o, and installs its new time. o's root gets its time and is
// unlinked from c, but the caller positions it: under c's root for
// Join, as the new root for MonotoneCopy.
//
// For MonotoneCopy, z names c's current root: it is moved even when
// unprogressed so the new tree mirrors o's shape (Algorithm 2, line
// 67); Join passes z == none. The result reports whether z was moved
// (always true for Join).
func (c *TreeClock) update(o *TreeClock, z vt.TID) bool {
	cclk, csh := c.clk, c.sh
	oclk, osh := o.clk, o.sh
	var entries, changed uint64

	croot := c.root
	zr := o.root
	if r := &csh[zr]; r.par != notIn && zr != croot {
		unlink(csh, r)
	}
	if z == zr {
		z = none // the roots coincide: nothing to reposition
	}
	// u is the node whose children are being scanned and uclk its time
	// in c before the pass; v is the next child of u to examine, and
	// last the child this pass linked under u most recently.
	u, uclk, v, last := zr, cclk[zr], osh[zr].head, none
	for {
		for v != none {
			entries++
			vclk := oclk[v]
			ov := &osh[v]
			if cclk[v] < vclk {
				// v has progressed: move it to its place in o.
				cv := &csh[v]
				if cv.par == notIn {
					c.nodes++
				} else if v != croot {
					unlink(csh, cv)
				}
				if v == z {
					z = none
				}
				link(csh, v, u, last, ov.aclk)
				last = v
				if ov.head != none {
					// Descend; v's new time waits for the end
					// of its child scan.
					u, uclk, v, last = v, cclk[v], ov.head, none
					continue
				}
				entries++
				changed++
				cclk[v] = vclk
				v = ov.nxt
				continue
			}
			if v == z {
				// The old root must move even though it has not
				// progressed (line 67). It is c's root, so it is
				// not linked anywhere and needs no unlink.
				link(csh, v, u, last, ov.aclk)
				last = v
				entries++
				if cclk[v] != vclk {
					changed++
				}
				cclk[v] = vclk
				z = none
			}
			if ov.aclk <= uclk {
				// c already knows u at v's attachment time, so it
				// knows every later sibling too (indirect
				// monotonicity): stop scanning.
				break
			}
			v = ov.nxt
		}
		// u's child scan is over: install its time and climb back to
		// its parent in o, going on at u's next sibling.
		entries++
		if cclk[u] != oclk[u] {
			changed++
		}
		cclk[u] = oclk[u]
		if u == zr {
			break
		}
		v, last = osh[u].nxt, u
		u = osh[u].par
		uclk = cclk[u]
	}
	if st := c.stats; st != nil {
		st.Entries += entries
		st.Changed += changed
	}
	return z == none
}

// unlink removes the node with shape entry nv from its parent's child
// list, leaving nv's own links as they were.
func unlink(csh []shape, nv *shape) {
	if nv.prv == none {
		csh[nv.par].head = nv.nxt
	} else {
		csh[nv.prv].nxt = nv.nxt
	}
	if nv.nxt != none {
		csh[nv.nxt].prv = nv.prv
	}
}

// link inserts v into p's child list right after prev, or at the front
// when prev is none, attached at time aclk. v keeps its own children.
func link(csh []shape, v, p, prev vt.TID, aclk vt.Time) {
	var next vt.TID
	if prev == none {
		next = csh[p].head
		csh[p].head = v
	} else {
		next = csh[prev].nxt
		csh[prev].nxt = v
	}
	if next != none {
		csh[next].prv = v
	}
	nv := &csh[v]
	nv.aclk, nv.par, nv.nxt, nv.prv = aclk, p, next, prev
}

// pushChild makes u the first child of p, attached at time aclk.
func (c *TreeClock) pushChild(u, p vt.TID, aclk vt.Time) {
	if c.sh[u].par == notIn {
		c.nodes++
	}
	link(c.sh, u, p, none, aclk)
}

// deepCopyFrom overwrites c with a full structural copy of o in Θ(k).
// Used for copies into empty clocks (initialization) and as the
// non-monotone fallback of CopyCheckMonotone; only the fallback counts
// toward WorkStats.DeepCopies (§5.1 bounds it by write-write races).
// When the receiver's capacity exceeds the operand's, the tail entries
// are cleared (o represents 0 for every thread beyond its capacity).
func (c *TreeClock) deepCopyFrom(o *TreeClock) {
	c.rev++
	c.Grow(int(o.k))
	if c.stats != nil {
		c.stats.Entries += uint64(c.k)
		for t := int32(0); t < c.k; t++ {
			if c.clk[t] != o.Get(vt.TID(t)) {
				c.stats.Changed++
			}
		}
	}
	c.root = o.root
	c.nodes = o.nodes
	copy(c.clk, o.clk)
	copy(c.sh, o.sh)
	for t := int(o.k); t < int(c.k); t++ {
		c.clk[t] = 0
		c.sh[t] = shape{par: notIn, head: none, nxt: none, prv: none}
	}
}

var _ vt.Clock[*TreeClock] = (*TreeClock)(nil)
