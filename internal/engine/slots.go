package engine

// Thread-slot reclamation: the fix for the third unbounded dimension of
// a streaming run. Clock capacity k normally grows with every thread
// the trace ever forked, so a month-long stream that churns through
// short-lived threads drags every clock toward Θ(lifetime threads).
// With reclamation enabled the runtime separates the trace's external
// thread ids from the internal clock slots: external ids are remapped
// on entry to Step, and when a thread is joined — the point after which
// no live clock can ever again receive its component through a join —
// its slot is retired and later re-issued to a freshly forked thread,
// so k plateaus at the peak number of concurrently live threads.
//
// # Why retiring a slot is sound
//
// Retirement scrubs the dead thread's clock down to the singleton
// {s: T_u} (T_u is the thread's final local time) by releasing every
// foreign entry (vt.Clock.ReleaseSlot). The foreign entries are dead:
// the joining thread has already absorbed them, and no future event of
// the retired thread exists to publish them again.
//
// Re-issuing slot s to a fresh child forked by f is gated on
//
//	C_f.Get(s) >= T_u
//
// — the forker must already know the dead thread's final time. Because
// knowledge of a thread only ever originates from that thread's own
// clock, C_f.Get(s) = T_u means C_f sits above the dead thread's final
// clock in the partial order, i.e. C_f dominates everything the dead
// thread ever knew. The new occupant's times then continue the slot's
// scale: its clock starts at {s: T_u} ⊔ C_f, its first increment makes
// T_u+1, and every slot-s entry w in any clock decomposes as the pair
//
//	(dead thread's component:  min(w, T_u),
//	 new thread's component:   max(0, w-T_u))
//
// Both directions of this translation are monotone, so every pointwise
// clock comparison the HB/SHB/MAZ analyses make is isomorphic to the
// unreclaimed run's: the same races are reported (reported thread ids
// are internal slots, not trace ids). A never-acted thread (T_u = 0)
// passes the gate trivially, and soundly: no clock anywhere holds a
// nonzero entry for it, so its slot carries no trace of the old era.
//
// The gate is what excludes weak orders: WCP's rule-(b) ordering check
// treats equal slots as the same thread, but fork/join edges are HB
// edges, not WCP edges, so the domination argument above does not carry
// over — EnableSlotReclaim rejects plugins with thread hooks and WCP
// bounds its state by summary aging instead (internal/wcp).
//
// # The recycled-fork sequence
//
// For a tree clock the child's clock cannot simply join the forker:
// the forker still carries the dead era's slot-s entry, and a receiver
// that already knows s at T_u would trip the tree's pruning rules over
// entries it does not honestly hold. The runtime therefore forks a
// recycled slot in three contract-level steps (forkRecycled):
//
//	C_f.ReleaseSlot(s)      — strip the dead era's entry; s's subtree
//	                          splices to s's parent, values intact
//	C_child.Join(C_f)       — the scrubbed singleton {s: T_u} absorbs
//	                          the forker; s is absent from the source,
//	                          so no pruning rule misfires
//	C_f.Join(C_child)       — the forker re-learns s at T_u (the
//	                          child's root), restoring its exact
//	                          pre-fork vector time
//
// Each step preserves the tree-clock invariants (descending-aclk child
// lists and honest provenance), and the net effect on represented
// vector times is exactly the uniform fork path's under the era
// translation above.
//
// # Remapping rules
//
//   - A forked child gets the lowest retired slot passing the gate, or
//     a fresh slot when none qualifies.
//   - A spontaneous thread (first seen by its own event, no fork edge)
//     always gets a fresh slot: with no forker there is no domination
//     evidence, so re-issuing a used slot could conflate eras.
//   - Join retires the slot after the event is processed and forgets
//     the external id; if the trace later names that external id again
//     (a double join), it is treated as a fresh spontaneous thread,
//     which joins as a zero clock — a no-op, exactly like re-joining an
//     already-absorbed thread in the unreclaimed run.
//
// The remapping is deterministic (it depends only on the event prefix),
// so sharded parallel replicas (internal/parallel) stay in lockstep.

import (
	"fmt"
	"sort"

	"treeclock/internal/trace"
	"treeclock/internal/vt"
)

// slotTable is the external-id → internal-slot remapping state.
type slotTable struct {
	extern  map[vt.TID]vt.TID // live external thread id → slot
	free    []vt.TID          // retired slots, ascending
	next    vt.TID            // lowest never-issued slot
	retired uint64            // slots retired over the run
	reused  uint64            // retired slots re-issued to new threads
}

// EnableSlotReclaim turns on thread-slot reclamation. It must be called
// before any event is processed, and fails for semantics plugins that
// implement ThreadSemantics: their fork/join hooks see per-thread state
// whose ordering rules are not closed under the HB-only domination
// argument slot reuse relies on (see the package comment above — WCP is
// the motivating case, and bounds its state by summary aging instead).
func (r *Runtime[C]) EnableSlotReclaim() error {
	if r.threadSem != nil {
		return fmt.Errorf("engine: slot reclamation is unsupported for semantics %T: thread hooks order fork/join by rules that slot reuse does not preserve", r.sem)
	}
	if r.events > 0 {
		return fmt.Errorf("engine: EnableSlotReclaim must run before any event is processed")
	}
	r.slots = &slotTable{extern: make(map[vt.TID]vt.TID)}
	return nil
}

// slotOf returns the internal slot for external thread id t, issuing a
// fresh slot on first sight (spontaneous threads never recycle).
func (s *slotTable) slotOf(t vt.TID) vt.TID {
	if slot, ok := s.extern[t]; ok {
		return slot
	}
	slot := s.fresh()
	s.extern[t] = slot
	return slot
}

// fresh issues the lowest never-used slot.
func (s *slotTable) fresh() vt.TID {
	slot := s.next
	s.next++
	return slot
}

// remap rewrites ev's external thread ids (T always; Obj for Fork/Join)
// to internal slots. recycled reports that ev is a Fork whose child got
// a retired slot (Step then runs forkRecycled instead of the uniform
// join), and retire names the slot to retire after the event is
// processed (vt.None otherwise).
func (r *Runtime[C]) remap(ev trace.Event) (out trace.Event, recycled bool, retire vt.TID) {
	s := r.slots
	retire = vt.None
	ev.T = s.slotOf(ev.T)
	switch ev.Kind {
	case trace.Fork:
		u := vt.TID(ev.Obj)
		slot, ok := s.extern[u]
		if !ok {
			slot, recycled = r.forkSlot(ev.T)
			s.extern[u] = slot
		}
		ev.Obj = int32(slot)
	case trace.Join:
		u := vt.TID(ev.Obj)
		slot, ok := s.extern[u]
		if !ok {
			// Joining a never-seen (or already-joined) id: treat it as
			// a fresh thread with the zero clock — the join is a no-op.
			slot = s.fresh()
		} else {
			delete(s.extern, u)
		}
		ev.Obj = int32(slot)
		retire = slot
	}
	return ev, recycled, retire
}

// forkSlot picks the slot for a newly forked child of f: the lowest
// retired slot whose final time the forker already dominates (the
// soundness gate — see the package comment), or a fresh slot.
func (r *Runtime[C]) forkSlot(f vt.TID) (slot vt.TID, recycled bool) {
	s := r.slots
	for i, cand := range s.free {
		tu := r.threads[cand].Get(cand)
		var fv vt.Time
		if int(f) < len(r.threads) {
			fv = r.threads[f].Get(cand)
		}
		if fv >= tu {
			s.free = append(s.free[:i], s.free[i+1:]...)
			s.reused++
			return cand, true
		}
	}
	return s.fresh(), false
}

// forkRecycled installs the forker's knowledge into the recycled slot
// u's clock and restores the forker's own view of u — the three-step
// sequence documented in the package comment. ct is the forker's clock
// (already incremented for the fork event).
func (r *Runtime[C]) forkRecycled(ct C, u vt.TID) {
	cu := r.threads[u] // scrubbed singleton {u: T_u}
	ct.ReleaseSlot(u)
	cu.Join(ct)
	ct.Join(cu)
}

// retireSlot scrubs the joined thread's clock down to the singleton
// holding its own final time and parks the slot on the free list.
func (r *Runtime[C]) retireSlot(s vt.TID) {
	c := r.threads[s]
	for x := 0; x < len(r.threads); x++ {
		if vt.TID(x) != s {
			c.ReleaseSlot(vt.TID(x))
		}
	}
	tbl := r.slots
	i := sort.Search(len(tbl.free), func(i int) bool { return tbl.free[i] >= s })
	tbl.free = append(tbl.free, 0)
	copy(tbl.free[i+1:], tbl.free[i:])
	tbl.free[i] = s
	tbl.retired++
}
