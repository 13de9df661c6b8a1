package core

import (
	"fmt"
	"math/rand"
	"testing"

	"treeclock/internal/vt"
)

// model_test mirrors every tree clock against a plain vt.Vector while
// the clocks are exercised exactly the way the paper's algorithms do
// (HB protocol for Join/MonotoneCopy, SHB protocol for
// CopyCheckMonotone, the engine's slot-reuse protocol for
// ReleaseSlot). After every operation the tree must represent the same
// vector time as the mirror and pass structural validation. The
// choices come from math/rand in the randomized tests and from the
// fuzz input in FuzzTreeClockProtocol.

// chooser supplies the model's choices: *rand.Rand, or fuzzChoices.
type chooser interface{ Intn(n int) int }

// hbModel drives k thread clocks and l lock clocks under the HB
// protocol: only free locks are acquired, only held locks are released,
// so every MonotoneCopy precondition is honoured (Lemma 2). addVars
// adds SHB last-write clocks.
type hbModel struct {
	t       *testing.T
	r       chooser
	k, l    int
	threads []*TreeClock
	locks   []*TreeClock
	lw      []*TreeClock // per-variable last-write clocks (SHB)
	mThr    []vt.Vector  // mirrors of thread clocks
	mLck    []vt.Vector  // mirrors of lock clocks
	mLW     []vt.Vector  // mirrors of last-write clocks
	holder  []int        // lock -> thread holding it, -1 if free
	held    [][]int      // thread -> locks currently held
	stats   *vt.WorkStats
}

func newHBModel(t *testing.T, r chooser, k, l int, stats *vt.WorkStats) *hbModel {
	m := &hbModel{t: t, r: r, k: k, l: l, stats: stats}
	m.threads = make([]*TreeClock, k)
	m.mThr = make([]vt.Vector, k)
	for i := 0; i < k; i++ {
		m.threads[i] = New(k, stats)
		m.threads[i].Init(vt.TID(i))
		m.mThr[i] = vt.NewVector(k)
	}
	m.locks = make([]*TreeClock, l)
	m.mLck = make([]vt.Vector, l)
	m.holder = make([]int, l)
	for i := 0; i < l; i++ {
		m.locks[i] = New(k, stats)
		m.mLck[i] = vt.NewVector(k)
		m.holder[i] = -1
	}
	m.held = make([][]int, k)
	return m
}

// addVars adds nv last-write clocks for the SHB protocol.
func (m *hbModel) addVars(nv int) {
	for i := 0; i < nv; i++ {
		m.lw = append(m.lw, New(m.k, m.stats))
		m.mLW = append(m.mLW, vt.NewVector(m.k))
	}
}

func (m *hbModel) check(label string, c *TreeClock, mirror vt.Vector) {
	m.t.Helper()
	if err := c.Validate(); err != nil {
		m.t.Fatalf("%s: invalid tree: %v\n%s", label, err, c)
	}
	got := c.Vector(vt.NewVector(m.k))
	if !got.Equal(mirror) {
		m.t.Fatalf("%s: tree clock %v, mirror %v\n%s", label, got, mirror, c)
	}
}

// step performs one random event and cross-checks the touched clocks.
func (m *hbModel) step(i int) {
	t := m.r.Intn(m.k)
	// Increment: every event bumps the thread's local time first.
	m.threads[t].Inc(vt.TID(t), 1)
	m.mThr[t][t]++

	switch m.r.Intn(3) {
	case 0: // local event: increment only
	case 1: // acquire a free lock, if any
		l := m.r.Intn(m.l)
		if m.holder[l] != -1 {
			break
		}
		m.holder[l] = t
		m.held[t] = append(m.held[t], l)
		m.threads[t].Join(m.locks[l])
		m.mThr[t].Join(m.mLck[l])
	case 2: // release one of our held locks, if any
		if len(m.held[t]) == 0 {
			break
		}
		j := m.r.Intn(len(m.held[t]))
		l := m.held[t][j]
		m.held[t] = append(m.held[t][:j], m.held[t][j+1:]...)
		m.holder[l] = -1
		m.locks[l].MonotoneCopy(m.threads[t])
		m.mLck[l].CopyFrom(m.mThr[t])
		m.check(fmt.Sprintf("step %d: lock %d after release", i, l), m.locks[l], m.mLck[l])
	}
	m.check(fmt.Sprintf("step %d: thread %d", i, t), m.threads[t], m.mThr[t])
}

func TestModelHBProtocol(t *testing.T) {
	for _, cfg := range []struct{ k, l, steps int }{
		{2, 1, 400},
		{3, 2, 600},
		{5, 3, 1500},
		{8, 4, 2500},
		{16, 8, 4000},
		{32, 5, 4000},
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("k=%d_l=%d", cfg.k, cfg.l), func(t *testing.T) {
			var st vt.WorkStats
			r := rand.New(rand.NewSource(int64(cfg.k*1000 + cfg.l)))
			m := newHBModel(t, r, cfg.k, cfg.l, &st)
			for i := 0; i < cfg.steps; i++ {
				m.step(i)
			}
			if st.ForcedRootAttach != 0 {
				t.Errorf("ForcedRootAttach = %d; the paper's invariant should make this 0", st.ForcedRootAttach)
			}
		})
	}
}

// TestModelHBProtocolAblations runs the same model under the ablation
// modes: disabling a pruning rule must never change the represented
// vector times, only the work performed.
func TestModelHBProtocolAblations(t *testing.T) {
	for _, mode := range []Mode{ModeNoIndirectBreak, ModeDeepCopy} {
		mode := mode
		t.Run(fmt.Sprintf("mode=%d", mode), func(t *testing.T) {
			r := rand.New(rand.NewSource(99))
			m := newHBModel(t, r, 6, 3, nil)
			for _, c := range m.threads {
				c.mode = mode
			}
			for _, c := range m.locks {
				c.mode = mode
			}
			for i := 0; i < 2000; i++ {
				m.step(i)
			}
		})
	}
}

// shbStep performs one random access under the SHB protocol and
// cross-checks the touched clock; it reports whether a write took the
// deep-copy fallback.
func (m *hbModel) shbStep(i int) (deep bool) {
	t := m.r.Intn(m.k)
	x := m.r.Intn(len(m.lw))
	// Every event increments its thread's local time first
	// (footnote 1); attachment times are meaningless otherwise.
	m.threads[t].Inc(vt.TID(t), 1)
	m.mThr[t][t]++
	switch m.r.Intn(2) {
	case 0: // read: C_t ← C_t ⊔ LW_x
		m.threads[t].Join(m.lw[x])
		m.mThr[t].Join(m.mLW[x])
		m.check(fmt.Sprintf("step %d: read thread %d", i, t), m.threads[t], m.mThr[t])
	case 1: // write: LW_x ← C_t (monotone or not)
		was := m.lw[x].CopyCheckMonotone(m.threads[t])
		wantMonotone := m.mLW[x].LessEq(m.mThr[t])
		if was != wantMonotone {
			m.t.Fatalf("step %d: CopyCheckMonotone = %v, mirror says %v", i, was, wantMonotone)
		}
		deep = !was
		m.mLW[x].CopyFrom(m.mThr[t])
		m.check(fmt.Sprintf("step %d: LW %d", i, x), m.lw[x], m.mLW[x])
	}
	return deep
}

// TestModelSHBProtocol adds per-variable last-write clocks driven by
// CopyCheckMonotone, exercising both the sublinear monotone path and
// the deep-copy fallback (which occurs exactly on write-write races).
func TestModelSHBProtocol(t *testing.T) {
	const k, l, nv, steps = 6, 2, 4, 4000
	var st vt.WorkStats
	r := rand.New(rand.NewSource(7))
	m := newHBModel(t, r, k, l, &st)
	m.addVars(nv)
	deep := 0
	for i := 0; i < steps; i++ {
		m.step(i)
		if m.shbStep(i) {
			deep++
		}
	}
	if deep == 0 {
		t.Error("expected at least one non-monotone copy in a racy random run")
	}
}

// TestModelWorkChangedMatchesMirror verifies the VTWork accounting: the
// Changed counter must equal the number of vector entries that actually
// changed, computed independently from the mirrors.
func TestModelWorkChangedMatchesMirror(t *testing.T) {
	const k, l, steps = 5, 3, 2000
	var st vt.WorkStats
	r := rand.New(rand.NewSource(21))
	m := newHBModel(t, r, k, l, &st)
	// Independent recount: drive a second mirror set alongside and sum
	// diffs. The hbModel already updates mirrors with Join (which
	// reports changes) — recompute by snapshotting before/after.
	var independent uint64
	snapshotAll := func() []vt.Vector {
		all := make([]vt.Vector, 0, k+l)
		for _, v := range m.mThr {
			all = append(all, v.Clone())
		}
		for _, v := range m.mLck {
			all = append(all, v.Clone())
		}
		return all
	}
	before := snapshotAll()
	for i := 0; i < steps; i++ {
		m.step(i)
		after := snapshotAll()
		for j := range after {
			for x := range after[j] {
				if after[j][x] != before[j][x] {
					independent++
				}
			}
		}
		before = after
	}
	if st.Changed != independent {
		t.Errorf("WorkStats.Changed = %d, independent recount = %d", st.Changed, independent)
	}
}
