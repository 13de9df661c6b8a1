package hb

import (
	"fmt"
	"testing"

	"treeclock/internal/core"
	"treeclock/internal/engine"
	"treeclock/internal/gen"
	"treeclock/internal/oracle"
	"treeclock/internal/trace"
	"treeclock/internal/vc"
	"treeclock/internal/vt"
)

// newEngine binds the HB semantics to a fresh runtime over f.
func newEngine[C vt.Clock[C]](f vt.Factory[C]) *engine.Runtime[C] {
	return engine.New[C](NewSemantics[C](), f)
}

func parse(t *testing.T, s string) *trace.Trace {
	t.Helper()
	tr, err := trace.ParseTextString(s)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return tr
}

// randomTraces is the shared differential-test corpus: mixtures of
// thread counts, lock counts and sync ratios, all small enough for the
// quadratic oracle.
func randomTraces() []*trace.Trace {
	var out []*trace.Trace
	for seed := int64(1); seed <= 6; seed++ {
		out = append(out,
			gen.Mixed(gen.Config{Name: "rnd-grouped", Threads: 12, Locks: 8, Vars: 24, Events: 800, Seed: 99, SyncFrac: 0.3, LockAffinity: 2, Groups: 3, VarRun: 4}),
			gen.Mixed(gen.Config{Name: "rnd-a", Threads: 3, Locks: 2, Vars: 5, Events: 300, Seed: seed, SyncFrac: 0.4}),
			gen.Mixed(gen.Config{Name: "rnd-b", Threads: 6, Locks: 3, Vars: 8, Events: 500, Seed: seed * 7, SyncFrac: 0.25}),
			gen.Mixed(gen.Config{Name: "rnd-c", Threads: 10, Locks: 5, Vars: 12, Events: 700, Seed: seed * 13, SyncFrac: 0.15}),
		)
	}
	out = append(out,
		gen.SingleLock(5, 400, 3),
		gen.Star(8, 500, 4),
		gen.Pairwise(6, 400, 5),
		gen.ForkJoinTree(5, 30, 6),
	)
	return out
}

// stepCompare runs the engine event by event and compares each event's
// timestamp with the oracle's.
func stepCompare[C vt.Clock[C]](t *testing.T, tr *trace.Trace, e *engine.Runtime[C], res *oracle.Result, label string) {
	t.Helper()
	k := tr.Meta.Threads
	for i, ev := range tr.Events {
		e.Step(ev)
		got := e.Timestamp(ev.T, vt.NewVector(k))
		if !got.Equal(res.Post[i]) {
			t.Fatalf("%s: %s event %d (%v): timestamp %v, oracle %v", label, tr.Meta.Name, i, ev, got, res.Post[i])
		}
	}
}

func TestHBMatchesOracleBothClocks(t *testing.T) {
	for _, tr := range randomTraces() {
		res := oracle.Timestamps(tr, oracle.HB)
		eTC := newEngine(core.Factory(nil))
		stepCompare(t, tr, eTC, res, "tree clock")
		eVC := newEngine(vc.Factory(nil))
		stepCompare(t, tr, eVC, res, "vector clock")
	}
}

func TestHBHandComputed(t *testing.T) {
	tr := parse(t, `
t0 acq l0
t0 w x0
t0 rel l0
t1 acq l0
t1 r x0
t1 rel l0
`)
	e := newEngine(core.Factory(nil))
	e.Process(tr.Events)
	if got := e.Timestamp(1, vt.NewVector(2)); !got.Equal(vt.Vector{3, 3}) {
		t.Errorf("t1 timestamp = %v, want [3, 3]", got)
	}
	if e.Events() != 6 {
		t.Errorf("Events() = %d", e.Events())
	}
}

// TestVTWorkIdenticalAcrossClocks asserts the defining property of
// VTWork: the number of changed vector-time entries is a function of
// the trace, not the data structure.
func TestVTWorkIdenticalAcrossClocks(t *testing.T) {
	for _, tr := range randomTraces() {
		var stTC, stVC vt.WorkStats
		newEngine(core.Factory(&stTC)).Process(tr.Events)
		newEngine(vc.Factory(&stVC)).Process(tr.Events)
		if stTC.Changed != stVC.Changed {
			t.Errorf("%s: VTWork disagrees: tree %d vs vector %d", tr.Meta.Name, stTC.Changed, stVC.Changed)
		}
		if stTC.ForcedRootAttach != 0 {
			t.Errorf("%s: ForcedRootAttach = %d", tr.Meta.Name, stTC.ForcedRootAttach)
		}
	}
}

// TestTreeClockWorkBound asserts Theorem 1's accounting: the entries a
// tree-clock run accesses are within a small constant of VTWork. The
// paper proves ≤ 3·VTWork for its accounting of join/copy accesses; we
// also admit one root comparison per operation (vacuous joins touch the
// root but change nothing).
func TestTreeClockWorkBound(t *testing.T) {
	for _, tr := range randomTraces() {
		var st vt.WorkStats
		newEngine(core.Factory(&st)).Process(tr.Events)
		bound := 3*st.Changed + st.Joins + st.Copies
		if st.Entries > bound {
			t.Errorf("%s: TCWork %d exceeds 3·VTWork+ops = %d (VTWork %d)",
				tr.Meta.Name, st.Entries, bound, st.Changed)
		}
	}
}

// TestVectorClockWorkLinear sanity-checks the baseline: with every
// clock allocated k wide up front, every join or copy touches exactly
// k entries.
func TestVectorClockWorkLinear(t *testing.T) {
	tr := gen.SingleLock(7, 600, 1)
	var st vt.WorkStats
	f := vc.Factory(&st)
	newEngine(func(int) *vc.VectorClock { return f(tr.Meta.Threads) }).Process(tr.Events)
	wantOps := st.Joins + st.Copies
	wantEntries := wantOps*uint64(tr.Meta.Threads) + uint64(tr.Len()) // + increments
	if st.Entries != wantEntries {
		t.Errorf("VCWork = %d, want %d (%d ops over %d threads)", st.Entries, wantEntries, wantOps, tr.Meta.Threads)
	}
}

// eventIndex maps (thread, local time) pairs back to event indices.
func eventIndex(tr *trace.Trace) map[vt.Epoch]int {
	m := make(map[vt.Epoch]int, tr.Len())
	lt := tr.LocalTimes()
	for i, e := range tr.Events {
		m[vt.Epoch{T: e.T, Clk: lt[i]}] = i
	}
	return m
}

// TestRaceDetectionAgainstOracle checks the FastTrack-style detector
// against the quadratic ground truth: every reported sample pair is a
// real race, and every variable with a race is reported (per-variable
// completeness of first races).
func TestRaceDetectionAgainstOracle(t *testing.T) {
	for _, tr := range randomTraces() {
		res := oracle.Timestamps(tr, oracle.HB)
		e := newEngine(core.Factory(nil))
		det := e.EnableRaceDetection()
		e.Process(tr.Events)

		idx := eventIndex(tr)
		for _, p := range det.Acc.Samples {
			i, ok1 := idx[p.Prior]
			j, ok2 := idx[p.Access]
			if !ok1 || !ok2 {
				t.Fatalf("%s: race %v names unknown events", tr.Meta.Name, p)
			}
			if !trace.Conflicting(tr.Events[i], tr.Events[j]) {
				t.Errorf("%s: race %v on non-conflicting events %v, %v", tr.Meta.Name, p, tr.Events[i], tr.Events[j])
			}
			if !res.Concurrent(i, j) {
				t.Errorf("%s: reported race %v is HB-ordered", tr.Meta.Name, p)
			}
		}
		oracleVars := res.RacyVars(tr)
		detVars := det.Acc.RacyVars()
		for x := range oracleVars {
			if !detVars[x] {
				t.Errorf("%s: variable x%d has an HB race the detector missed", tr.Meta.Name, x)
			}
		}
		for x := range detVars {
			if !oracleVars[x] {
				t.Errorf("%s: detector flagged race-free variable x%d", tr.Meta.Name, x)
			}
		}
	}
}

// TestRaceDetectionAgreesAcrossClocks verifies the detector reports
// identical counts with tree clocks and vector clocks.
func TestRaceDetectionAgreesAcrossClocks(t *testing.T) {
	for _, tr := range randomTraces() {
		eTC := newEngine(core.Factory(nil))
		dTC := eTC.EnableRaceDetection()
		eTC.Process(tr.Events)
		eVC := newEngine(vc.Factory(nil))
		dVC := eVC.EnableRaceDetection()
		eVC.Process(tr.Events)
		if dTC.Acc.Summary() != dVC.Acc.Summary() {
			t.Errorf("%s: detector disagrees: TC %+v vs VC %+v",
				tr.Meta.Name, dTC.Acc.Summary(), dVC.Acc.Summary())
		}
	}
}

func TestRacyTraceIsDetected(t *testing.T) {
	tr := parse(t, "t0 w x0\nt1 r x0\nt1 w x0\n")
	e := newEngine(core.Factory(nil))
	det := e.EnableRaceDetection()
	e.Process(tr.Events)
	sum := det.Acc.Summary()
	if sum.WriteRead != 1 { // t0's write vs t1's read
		t.Errorf("write-read races = %d, want 1", sum.WriteRead)
	}
	if sum.WriteWrite != 1 { // t0's write vs t1's write
		t.Errorf("write-write races = %d, want 1", sum.WriteWrite)
	}
	if e.Detector() != det {
		t.Error("Detector() accessor broken")
	}
}

func TestWellSyncedTraceHasNoRaces(t *testing.T) {
	tr := gen.SingleLock(6, 500, 2)
	e := newEngine(vc.Factory(nil))
	det := e.EnableRaceDetection()
	e.Process(tr.Events)
	if det.Acc.Total != 0 {
		t.Errorf("sync-only trace produced %d races", det.Acc.Total)
	}
}

func TestForkJoinSemantics(t *testing.T) {
	tr := parse(t, `
t0 w x0
t0 fork t1
t1 r x0
t0 join t1
t0 w x0
`)
	e := newEngine(core.Factory(nil))
	det := e.EnableRaceDetection()
	e.Process(tr.Events)
	if det.Acc.Total != 0 {
		t.Errorf("fork/join-ordered accesses flagged racy: %v", det.Acc.Samples)
	}
	res := oracle.Timestamps(tr, oracle.HB)
	got := e.Timestamp(0, vt.NewVector(2))
	if !got.Equal(res.Post[4]) {
		t.Errorf("final t0 timestamp %v, oracle %v", got, res.Post[4])
	}
}

func TestThreadClockAccessor(t *testing.T) {
	tr := parse(t, "t0 w x0\n")
	e := newEngine(core.Factory(nil))
	e.Process(tr.Events)
	if e.ThreadClock(0).Get(0) != 1 {
		t.Error("ThreadClock accessor broken")
	}
}

func ExampleSemantics() {
	tr, _ := trace.ParseTextString("t0 acq l0\nt0 w x0\nt0 rel l0\nt1 acq l0\nt1 r x0\nt1 rel l0\n")
	e := engine.New(NewSemantics[*core.TreeClock](), core.Factory(nil))
	det := e.EnableRaceDetection()
	e.Process(tr.Events)
	fmt.Println("races:", det.Acc.Total)
	// Output: races: 0
}
