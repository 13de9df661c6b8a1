package core

import (
	"treeclock/internal/ckpt"
	"treeclock/internal/vt"
)

// Save implements vt.Clock: the two arrays of the paper's layout plus
// the scalars that steer future operations — root, mode, node count
// and the foreign-entry revision counter (which the weak-order
// quiet-release fast path reads, so it must survive a restore). That
// is the whole clock: it keeps no scratch between operations.
func (c *TreeClock) Save(e *ckpt.Enc) {
	e.Int32(c.k)
	e.Int32(int32(c.root))
	e.U8(uint8(c.mode))
	e.Int32(c.nodes)
	e.U64(c.rev)
	for i := 0; i < int(c.k); i++ {
		e.Svarint(int64(c.clk[i]))
	}
	for i := 0; i < int(c.k); i++ {
		s := &c.sh[i]
		e.Svarint(int64(s.aclk))
		e.Int32(int32(s.par))
		e.Int32(int32(s.head))
		e.Int32(int32(s.nxt))
		e.Int32(int32(s.prv))
	}
}

// loadLink decodes one tree link, rejecting anything outside the
// sentinel range and the thread universe so a restored tree can never
// index out of bounds.
func loadLink(d *ckpt.Dec, k int32) vt.TID {
	t := d.Int32()
	if t < int32(notIn) || t >= k {
		d.Corruptf("tree link %d outside [-2, %d)", t, k)
		return notIn
	}
	return vt.TID(t)
}

// minEntryBytes is the fewest payload bytes one saved entry takes: one
// varint byte each for its time, attachment time and four links.
const minEntryBytes = 6

// Load implements vt.Clock, replacing the clock's contents (Init must
// not have attached anything the caller wants to keep). Nothing in the
// payload is trusted: the capacity is bounded by the bytes left in the
// section before anything is allocated, links are range-checked, and
// the decoded clock must pass Validate. Structural garbage that
// survives the checksum fails as ErrCorrupt, never as a panic or a
// traversal that does not end.
func (c *TreeClock) Load(d *ckpt.Dec) {
	k := d.Int32()
	root := d.Int32()
	mode := Mode(d.U8())
	nodes := d.Int32()
	rev := d.U64()
	if d.Err() != nil {
		return
	}
	if k < 0 || int64(k)*minEntryBytes > int64(d.Remaining()) {
		d.Corruptf("tree clock capacity %d out of range for %d payload bytes", k, d.Remaining())
		return
	}
	if root < int32(none) || root >= k {
		d.Corruptf("tree clock root %d outside [-1, %d)", root, k)
		return
	}
	if mode > ModeDeepCopy {
		d.Corruptf("tree clock mode %d unknown", mode)
		return
	}
	clk := make([]vt.Time, k)
	for i := range clk {
		clk[i] = vt.Time(d.Svarint())
	}
	sh := make([]shape, k)
	for i := range sh {
		sh[i] = shape{
			aclk: vt.Time(d.Svarint()),
			par:  loadLink(d, k),
			head: loadLink(d, k),
			nxt:  loadLink(d, k),
			prv:  loadLink(d, k),
		}
	}
	if d.Err() != nil {
		return
	}
	l := TreeClock{k: k, root: vt.TID(root), mode: mode, nodes: nodes, rev: rev, clk: clk, sh: sh, stats: c.stats}
	if err := l.Validate(); err != nil {
		d.Corruptf("tree clock: %v", err)
		return
	}
	*c = l
}
