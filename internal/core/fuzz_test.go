package core

import (
	"fmt"
	"testing"

	"treeclock/internal/vt"
)

// fuzzChoices serves a model's choices from fuzz input, one byte per
// choice; an exhausted input answers 0.
type fuzzChoices struct{ data []byte }

func (c *fuzzChoices) Intn(n int) int {
	if len(c.data) == 0 {
		return 0
	}
	b := c.data[0]
	c.data = c.data[1:]
	return int(b) % n
}

// maxFuzzCap bounds the capacity of a fuzzed clock: the most a fuzzed
// Grow may reach, and the most FuzzTreeClockLoad encodes.
const maxFuzzCap = 16

// mix rebuilds the model's still-fresh clocks at input-chosen
// capacities — thread t's from t+1 to k, the others from 0 to k — all
// in one ablation mode. Clocks grow on demand, so the protocol and the
// mirrors are unchanged.
func (m *hbModel) mix(mode Mode) {
	fresh := func(min int) *TreeClock {
		c := New(min+m.r.Intn(m.k-min+1), m.stats)
		c.mode = mode
		return c
	}
	for i := range m.threads {
		m.threads[i] = fresh(i + 1)
		m.threads[i].Init(vt.TID(i))
	}
	for i := range m.locks {
		m.locks[i] = fresh(0)
	}
	for i := range m.lw {
		m.lw[i] = fresh(0)
	}
}

// growStep grows one clock's capacity; the vector time must not move.
func (m *hbModel) growStep(i int) {
	all := append(append(append([]*TreeClock{}, m.threads...), m.locks...), m.lw...)
	mirrors := append(append(append([]vt.Vector{}, m.mThr...), m.mLck...), m.mLW...)
	j := m.r.Intn(len(all))
	c := all[j]
	c.Grow(min(c.K()+m.r.Intn(4), maxFuzzCap))
	m.check(fmt.Sprintf("step %d: grow clock %d to %d", i, j, c.K()), c, mirrors[j])
}

// reuseStep retires a lock-free thread u and reuses its slot the way
// the engine's slot reclamation does (internal/engine/slots.go): u
// performs its last event, a live thread f joins u, u's clock is
// scrubbed to the singleton of its own final time with ReleaseSlot,
// and f forks the recycled slot — f drops its u entry, u's clock
// absorbs f, and f re-learns u.
//
// u acts before it is joined because a clock may only hand on what its
// owner published at one of its own events: the fork knowledge u's
// clock absorbs at time T_u is not published until u's next event,
// which is the paper's protocol and the oracle's fork edge (applied at
// the child's first event). The runtime joins a never-acted child
// anyway, and there vector and tree clocks disagree (ROADMAP).
func (m *hbModel) reuseStep(i int) {
	if m.k < 2 {
		return
	}
	u := m.r.Intn(m.k)
	f := (u + 1 + m.r.Intn(m.k-1)) % m.k
	if len(m.held[u]) > 0 {
		return
	}
	cu, cf, mu, mf := m.threads[u], m.threads[f], m.mThr[u], m.mThr[f]
	cu.Inc(vt.TID(u), 1) // u's last event
	mu[u]++
	cf.Inc(vt.TID(f), 1) // join event
	mf[f]++
	cf.Join(cu)
	mf.Join(mu)
	m.check(fmt.Sprintf("step %d: thread %d joins %d", i, f, u), cf, mf)
	for x := 0; x < m.k; x++ {
		if x != u {
			cu.ReleaseSlot(vt.TID(x))
			mu[x] = 0
		}
	}
	m.check(fmt.Sprintf("step %d: thread %d retired", i, u), cu, mu)
	cf.Inc(vt.TID(f), 1) // fork event
	mf[f]++
	cf.ReleaseSlot(vt.TID(u))
	mf[u] = 0
	cu.Join(cf)
	mu.Join(mf)
	cf.Join(cu)
	mf.Join(mu)
	m.check(fmt.Sprintf("step %d: slot %d reused by %d", i, u, f), cu, mu)
	m.check(fmt.Sprintf("step %d: forker %d", i, f), cf, mf)
}

// FuzzTreeClockProtocol drives the HB and SHB protocols from fuzz
// bytes — Join, MonotoneCopy, CopyCheckMonotone, Grow and the
// slot-reuse ReleaseSlot sequence — over up to 16 clocks of mixed
// capacity, in every Mode, checking each operation against the
// vt.Vector mirrors and Validate. The first bytes pick the mode, the
// thread, lock and variable counts and the starting capacities; each
// later operation consumes one byte for its kind plus its own choices.
func FuzzTreeClockProtocol(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2, 0, 1, 2, 3})
	f.Add([]byte("\x00\x07\x03\x03tree clocks join and copy under the hb and shb protocols"))
	f.Add([]byte("\x01\x05\x02\x01\x03\x03\x03\x00\x01\x02\x03\x00\x01\x02\x03\x03\x00"))
	f.Add([]byte("\x02\x06\x01\x04\x01\x01\x01\x01\x02\x02\x02\x02\x00\x00\x00\x00\x03\x03"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzChoices{data: data}
		mode := Mode(in.Intn(3))
		k := 1 + in.Intn(8)  // threads
		l := 1 + in.Intn(4)  // locks
		nv := 1 + in.Intn(4) // variables; k + l + nv <= 16
		var st vt.WorkStats
		m := newHBModel(t, in, k, l, &st)
		m.addVars(nv)
		m.mix(mode)
		for i := 0; len(in.data) > 0; i++ {
			switch in.Intn(4) {
			case 0:
				m.step(i)
			case 1:
				m.shbStep(i)
			case 2:
				m.growStep(i)
			case 3:
				m.reuseStep(i)
			}
		}
		if st.ForcedRootAttach != 0 {
			t.Errorf("ForcedRootAttach = %d; the protocols never leave the old root unreached", st.ForcedRootAttach)
		}
	})
}
