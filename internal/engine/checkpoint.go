package engine

// Checkpoint/restore for the shared runtime (see internal/ckpt for the
// wire format). The runtime serializes everything it owns — the
// per-thread and per-lock clocks, the event and identifier counters,
// and the attached detector/accumulator — and then hands the stream to
// the semantics plugin, which appends its own sections. Restore
// mirrors the order exactly. Shard predicates (analysis.SetShard) are
// runtime configuration, not analysis state: the caller re-binds them
// when it reconstructs the engine, before calling Restore.
//
// A restored runtime is crash-equivalent: its reports, timestamps and
// retained-state accounting are byte-identical to the uninterrupted
// run's from the checkpointed event onward (pinned by the root-level
// crash-equivalence harness). On any error the runtime may be left
// partially overwritten and must be discarded.

import (
	"fmt"
	"io"
	"sort"

	"treeclock/internal/ckpt"
	"treeclock/internal/vt"
)

// CheckpointSemantics is the checkpoint/restore extension of Semantics:
// plugins that support crash-safe analysis serialize their full state
// into a writer (as internal/ckpt sections) and restore it from a
// reader. The runtime detects the extension once at construction, like
// LockSemantics and MemReporter; Runtime.Snapshot fails cleanly for
// plugins without it.
type CheckpointSemantics[C vt.Clock[C]] interface {
	Semantics[C]
	// Snapshot serializes the plugin's complete state into w. rt is the
	// runtime the plugin is bound to (identifier spaces, clocks).
	Snapshot(rt *Runtime[C], w io.Writer) error
	// Restore replaces the plugin's state with one written by Snapshot.
	// It must run on a freshly constructed plugin bound to rt, returns
	// errors wrapping ckpt.ErrCorrupt for malformed input, and never
	// panics.
	Restore(rt *Runtime[C], r io.Reader) error
}

// Checkpointable reports whether the bound semantics plugin supports
// checkpoint/restore.
func (r *Runtime[C]) Checkpointable() bool { return r.ckptSem != nil }

// Snapshot serializes the runtime's complete analysis state — clocks,
// counters, detector/accumulator, plugin state — into w.
func (r *Runtime[C]) Snapshot(w io.Writer) error {
	if r.ckptSem == nil {
		return fmt.Errorf("engine: semantics %T does not support checkpointing", r.sem)
	}
	e := ckpt.NewEnc(w)
	e.Begin("engine")
	e.String("") // retired trace-name slot, kept so format v2 is unchanged
	e.Uvarint(uint64(r.vars))
	e.U64(r.events)
	e.Uvarint(uint64(len(r.threads)))
	for _, c := range r.threads {
		c.Save(e)
	}
	e.Uvarint(uint64(len(r.locks)))
	for l := range r.locks {
		e.Bool(r.lockSet[l])
		if r.lockSet[l] {
			r.locks[l].Save(e)
		}
	}
	e.Bool(r.slots != nil)
	if s := r.slots; s != nil {
		e.Uvarint(uint64(s.next))
		e.U64(s.retired)
		e.U64(s.reused)
		e.Uvarint(uint64(len(s.free)))
		for _, f := range s.free {
			e.Uvarint(uint64(f))
		}
		ext := make([]vt.TID, 0, len(s.extern))
		for u := range s.extern {
			ext = append(ext, u)
		}
		sort.Slice(ext, func(i, j int) bool { return ext[i] < ext[j] })
		e.Uvarint(uint64(len(ext)))
		for _, u := range ext {
			e.Uvarint(uint64(u))
			e.Uvarint(uint64(s.extern[u]))
		}
	}
	e.End()
	e.Begin("analysis")
	e.Bool(r.det != nil)
	e.Bool(r.acc != nil)
	if r.det != nil {
		r.det.Save(e) // includes its accumulator
	} else if r.acc != nil {
		r.acc.Save(e)
	}
	e.End()
	if err := e.Err(); err != nil {
		return err
	}
	return r.ckptSem.Snapshot(r, w)
}

// Restore replaces the runtime's state with one written by Snapshot.
// The runtime must be freshly constructed with the same semantics,
// clock type and analysis configuration (EnableRaceDetection /
// EnableAnalysis) as the run that produced the checkpoint; a mismatch
// is reported as corruption. On error the runtime must be discarded.
func (r *Runtime[C]) Restore(rd io.Reader) error {
	if r.ckptSem == nil {
		return fmt.Errorf("engine: semantics %T does not support checkpointing", r.sem)
	}
	d := ckpt.NewDec(rd)
	d.Begin("engine")
	_ = d.String() // retired trace-name slot
	vars := d.Count()
	events := d.U64()
	nt := d.Len(1)
	if d.Err() != nil {
		return d.Err()
	}
	threads := make([]C, 0, nt)
	for i := 0; i < nt; i++ {
		c := r.factory(nt)
		c.Load(d)
		if d.Err() != nil {
			return d.Err()
		}
		threads = append(threads, c)
	}
	nl := d.Len(1)
	if d.Err() != nil {
		return d.Err()
	}
	locks := make([]C, nl)
	lockSet := make([]bool, nl)
	for l := 0; l < nl; l++ {
		if d.Bool() {
			c := r.factory(nt)
			c.Load(d)
			if d.Err() != nil {
				return d.Err()
			}
			locks[l], lockSet[l] = c, true
		}
	}
	hasSlots := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if hasSlots != (r.slots != nil) {
		d.Corruptf("slot-reclamation configuration mismatch (checkpoint %v, engine %v)", hasSlots, r.slots != nil)
		return d.Err()
	}
	var slots *slotTable
	if hasSlots {
		slots = &slotTable{extern: make(map[vt.TID]vt.TID)}
		next := d.Uvarint()
		if next > uint64(vt.MaxID) {
			d.Corruptf("slot high-water mark %d out of range", next)
			return d.Err()
		}
		slots.next = vt.TID(next)
		slots.retired = d.U64()
		slots.reused = d.U64()
		nf := d.Len(1)
		slots.free = make([]vt.TID, 0, nf)
		prev := vt.None
		for i := 0; i < nf; i++ {
			f := d.Uvarint()
			if d.Err() != nil {
				return d.Err()
			}
			if f >= next || vt.TID(f) <= prev {
				d.Corruptf("free slot list entry %d not ascending below %d", f, next)
				return d.Err()
			}
			prev = vt.TID(f)
			slots.free = append(slots.free, vt.TID(f))
		}
		ne := d.Len(2)
		prev = vt.None
		for i := 0; i < ne; i++ {
			u, slot := d.Uvarint(), d.Uvarint()
			if d.Err() != nil {
				return d.Err()
			}
			if u > uint64(vt.MaxID) || vt.TID(u) <= prev || slot >= next {
				d.Corruptf("external thread map entry (%d -> %d) invalid", u, slot)
				return d.Err()
			}
			prev = vt.TID(u)
			slots.extern[vt.TID(u)] = vt.TID(slot)
		}
	}
	d.End()
	d.Begin("analysis")
	hasDet := d.Bool()
	hasAcc := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if hasDet != (r.det != nil) || hasAcc != (r.acc != nil) {
		d.Corruptf("analysis configuration mismatch (checkpoint det=%v acc=%v, engine det=%v acc=%v)",
			hasDet, hasAcc, r.det != nil, r.acc != nil)
		return d.Err()
	}
	if r.det != nil {
		r.det.Load(d)
	} else if r.acc != nil {
		r.acc.Load(d)
	}
	d.End()
	if err := d.Err(); err != nil {
		return err
	}
	r.vars, r.events = vars, events
	r.threads, r.locks, r.lockSet = threads, locks, lockSet
	if hasSlots {
		r.slots = slots
	}
	return r.ckptSem.Restore(r, rd)
}
