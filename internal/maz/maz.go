// Package maz computes the Mazurkiewicz partial order (§5.2,
// Algorithm 5): HB plus an ordering between every pair of conflicting
// events in trace order. Generic over the clock data structure like
// the HB and SHB engines.
//
// All sync scaffolding lives in the shared runtime of internal/engine;
// this package contributes only the MAZ read/write semantics and the
// per-variable state of Algorithm 5.
package maz

import (
	"treeclock/internal/analysis"
	"treeclock/internal/engine"
	"treeclock/internal/vt"
)

// varState is the per-variable bookkeeping of Algorithm 5.
type varState[C any] struct {
	lw    C      // clock of the last write
	lwSet bool   // lw allocated
	lwT   vt.TID // thread of the last write (for the analysis check)
	// rd[t] is R_{t,x}: the clock of thread t's last read since it
	// was allocated; inLRD[t] marks membership in LRDs_x (reads since
	// the last write). Allocated lazily on the variable's first read
	// and grown as new threads appear.
	rd    []C
	rdSet []bool
	inLRD []bool
	lrds  []vt.TID // LRDs_x as a list for cheap iteration and reset
}

// Semantics is the MAZ plugin for the shared engine runtime. With an
// accumulator attached (Runtime.EnableAnalysis) it also reports
// reversible pairs: the stateless model-checking use case of §6
// identifies conflicting pairs whose order is not already forced
// transitively (the candidate backtrack points of dynamic partial-order
// reduction). A pair is counted when the prior access is not ordered
// before the current event at the moment its direct edge is about to be
// added.
type Semantics[C vt.Clock[C]] struct {
	vars []varState[C]
}

// NewSemantics returns fresh MAZ semantics (one per engine run).
func NewSemantics[C vt.Clock[C]]() *Semantics[C] { return &Semantics[C]{} }

// state returns variable x's bookkeeping, growing the variable space as
// needed (amortized doubling).
func (s *Semantics[C]) state(x int32) *varState[C] {
	s.vars = vt.GrowSlice(s.vars, int(x)+1)
	return &s.vars[x]
}

// ensureReadState sizes vs's per-thread read bookkeeping to cover t
// (amortized doubling, like every other growth site).
func ensureReadState[C vt.Clock[C]](rt *engine.Runtime[C], vs *varState[C], t vt.TID) {
	n := rt.Threads()
	if int(t) >= n {
		n = int(t) + 1
	}
	vs.rd = vt.GrowSlice(vs.rd, n)
	vs.rdSet = vt.GrowSlice(vs.rdSet, n)
	vs.inLRD = vt.GrowSlice(vs.inLRD, n)
}

// Read implements engine.Semantics.
func (s *Semantics[C]) Read(rt *engine.Runtime[C], t vt.TID, x int32, ct C) {
	vs := s.state(x)
	if vs.lwSet {
		if acc := rt.Analysis(); acc != nil {
			// lw's own local time is its entry for its thread.
			if wc := vs.lw.Get(vs.lwT); wc > ct.Get(vs.lwT) {
				acc.Report(analysis.WriteRead, x,
					vt.Epoch{T: vs.lwT, Clk: wc}, vt.Epoch{T: t, Clk: ct.Get(t)})
			}
		}
		ct.Join(vs.lw)
	}
	ensureReadState(rt, vs, t)
	if !vs.rdSet[t] {
		vs.rd[t] = rt.NewClock()
		vs.rdSet[t] = true
	}
	// R_{t,x} holds an earlier timestamp of the same thread, so the
	// copy is monotone.
	vs.rd[t].MonotoneCopy(ct)
	if !vs.inLRD[t] {
		vs.inLRD[t] = true
		vs.lrds = append(vs.lrds, t)
	}
}

// Write implements engine.Semantics.
func (s *Semantics[C]) Write(rt *engine.Runtime[C], t vt.TID, x int32, ct C) {
	vs := s.state(x)
	if acc := rt.Analysis(); acc != nil {
		// All reversibility checks run against the pre-edge
		// timestamp, before any of this event's own conflict edges
		// are joined in — each candidate pair is judged
		// independently, as in dynamic partial-order reduction.
		now := vt.Epoch{T: t, Clk: ct.Get(t)}
		if vs.lwSet {
			if wc := vs.lw.Get(vs.lwT); wc > ct.Get(vs.lwT) {
				acc.Report(analysis.WriteWrite, x,
					vt.Epoch{T: vs.lwT, Clk: wc}, now)
			}
		}
		for _, u := range vs.lrds {
			if rc := vs.rd[u].Get(u); rc > ct.Get(u) {
				acc.Report(analysis.ReadWrite, x,
					vt.Epoch{T: u, Clk: rc}, now)
			}
		}
	}
	if vs.lwSet {
		ct.Join(vs.lw)
	}
	// Order every pending reader before this write; later writes
	// inherit the ordering transitively through this one, which is why
	// LRDs is cleared (§5.2).
	for _, u := range vs.lrds {
		ct.Join(vs.rd[u])
		vs.inLRD[u] = false
	}
	vs.lrds = vs.lrds[:0]
	if !vs.lwSet {
		vs.lw = rt.NewClock()
		vs.lwSet = true
	}
	// ct has just joined lw, so lw ⊑ ct: monotone.
	vs.lw.MonotoneCopy(ct)
	vs.lwT = t
}
