package maz

import (
	"testing"

	"treeclock/internal/analysis"
	"treeclock/internal/core"
	"treeclock/internal/engine"
	"treeclock/internal/gen"
	"treeclock/internal/oracle"
	"treeclock/internal/trace"
	"treeclock/internal/vc"
	"treeclock/internal/vt"
)

// newEngine binds the MAZ semantics to a fresh runtime over f.
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

func randomTraces() []*trace.Trace {
	var out []*trace.Trace
	for seed := int64(1); seed <= 6; seed++ {
		out = append(out,
			gen.Mixed(gen.Config{Name: "rnd-grouped", Threads: 12, Locks: 8, Vars: 24, Events: 800, Seed: 99, SyncFrac: 0.3, LockAffinity: 2, Groups: 3, VarRun: 4}),
			gen.Mixed(gen.Config{Name: "rnd-a", Threads: 3, Locks: 2, Vars: 5, Events: 300, Seed: seed, SyncFrac: 0.4, ReadFrac: 0.5}),
			gen.Mixed(gen.Config{Name: "rnd-b", Threads: 6, Locks: 3, Vars: 8, Events: 500, Seed: seed * 19, SyncFrac: 0.2, ReadFrac: 0.7}),
			gen.Mixed(gen.Config{Name: "rnd-c", Threads: 9, Locks: 4, Vars: 10, Events: 700, Seed: seed * 23, SyncFrac: 0.1}),
		)
	}
	out = append(out,
		gen.ProducerConsumer(3, 4, 600, 31),
		gen.ReadersWriters(8, 600, 32, true),
		gen.ForkJoinTree(5, 30, 33),
	)
	return out
}

func stepCompare[C vt.Clock[C]](t *testing.T, tr *trace.Trace, e *engine.Runtime[C], res *oracle.Result, label string) {
	t.Helper()
	for i, ev := range tr.Events {
		e.Step(ev)
		got := e.Timestamp(ev.T, vt.NewVector(tr.Meta.Threads))
		if !got.Equal(res.Post[i]) {
			t.Fatalf("%s: %s event %d (%v): timestamp %v, oracle %v", label, tr.Meta.Name, i, ev, got, res.Post[i])
		}
	}
}

func TestMAZMatchesOracleBothClocks(t *testing.T) {
	for _, tr := range randomTraces() {
		res := oracle.Timestamps(tr, oracle.MAZ)
		stepCompare(t, tr, newEngine(core.Factory(nil)), res, "tree clock")
		stepCompare(t, tr, newEngine(vc.Factory(nil)), res, "vector clock")
	}
}

func TestMAZHandComputed(t *testing.T) {
	// Conflicting accesses are ordered by trace order even without
	// locks; read-to-write orderings are included.
	tr := parse(t, "t0 w x0\nt1 r x0\nt2 w x0\n")
	e := newEngine(core.Factory(nil))
	e.Process(tr.Events)
	if got := e.Timestamp(2, vt.NewVector(3)); !got.Equal(vt.Vector{1, 1, 1}) {
		t.Errorf("t2 timestamp = %v, want [1, 1, 1]", got)
	}
}

func TestMAZNoConcurrentConflicting(t *testing.T) {
	// By construction MAZ orders every conflicting pair: the oracle's
	// race set must be empty after the engine agrees with it.
	for _, tr := range randomTraces()[:4] {
		res := oracle.Timestamps(tr, oracle.MAZ)
		if races := res.Races(tr); len(races) != 0 {
			t.Fatalf("%s: MAZ left %d conflicting pairs unordered", tr.Meta.Name, len(races))
		}
	}
}

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

// mirrorAnalysis recomputes the reversible-pair counts from the oracle:
// at each read, the last write on the variable is a candidate pair; at
// each write, the last write and each thread's last read since that
// write are candidates. A candidate counts when the prior event is not
// ordered before the current event's pre-edge timestamp.
func mirrorAnalysis(tr *trace.Trace, res *oracle.Result) (total uint64, byKind [3]uint64) {
	lastWrite := make(map[int32]int)
	lastReadSince := make(map[int32]map[vt.TID]int)
	for j, e := range tr.Events {
		switch e.Kind {
		case trace.Read:
			if i, ok := lastWrite[e.Obj]; ok && tr.Events[i].T != e.T {
				if !res.Post[i].LessEq(res.Pre[j]) {
					total++
					byKind[analysis.WriteRead]++
				}
			}
			if lastReadSince[e.Obj] == nil {
				lastReadSince[e.Obj] = make(map[vt.TID]int)
			}
			lastReadSince[e.Obj][e.T] = j
		case trace.Write:
			if i, ok := lastWrite[e.Obj]; ok && tr.Events[i].T != e.T {
				if !res.Post[i].LessEq(res.Pre[j]) {
					total++
					byKind[analysis.WriteWrite]++
				}
			}
			for _, i := range lastReadSince[e.Obj] {
				if tr.Events[i].T == e.T {
					continue
				}
				if !res.Post[i].LessEq(res.Pre[j]) {
					total++
					byKind[analysis.ReadWrite]++
				}
			}
			delete(lastReadSince, e.Obj)
			lastWrite[e.Obj] = j
		}
	}
	return total, byKind
}

// TestAnalysisMatchesOracleMirror verifies the streaming reversible-
// pair analysis (the DPOR backtrack-point count) against an
// independent oracle-based recomputation, for both clock types.
func TestAnalysisMatchesOracleMirror(t *testing.T) {
	for _, tr := range randomTraces() {
		res := oracle.Timestamps(tr, oracle.MAZ)
		wantTotal, wantKinds := mirrorAnalysis(tr, res)

		eTC := newEngine(core.Factory(nil))
		accTC := eTC.EnableAnalysis()
		eTC.Process(tr.Events)
		eVC := newEngine(vc.Factory(nil))
		accVC := eVC.EnableAnalysis()
		eVC.Process(tr.Events)

		for _, got := range []*analysis.Accumulator{accTC, accVC} {
			if got.Total != wantTotal {
				t.Errorf("%s: analysis total = %d, mirror %d", tr.Meta.Name, got.Total, wantTotal)
			}
			for k := 0; k < 3; k++ {
				if got.ByKind[k] != wantKinds[k] {
					t.Errorf("%s: kind %v count = %d, mirror %d",
						tr.Meta.Name, analysis.PairKind(k), got.ByKind[k], wantKinds[k])
				}
			}
		}
	}
}

func TestAnalysisOnSyncOnlyTraceIsZero(t *testing.T) {
	tr := gen.SingleLock(6, 500, 2)
	e := newEngine(core.Factory(nil))
	acc := e.EnableAnalysis()
	e.Process(tr.Events)
	if acc.Total != 0 {
		t.Errorf("sync-only trace reported %d reversible pairs", acc.Total)
	}
	if e.Analysis() != acc {
		t.Error("Analysis() accessor broken")
	}
	if e.Events() != uint64(tr.Len()) {
		t.Errorf("Events() = %d", e.Events())
	}
	if e.ThreadClock(0).Get(0) == 0 {
		t.Error("ThreadClock accessor broken")
	}
}

func TestAnalysisFindsRacyPair(t *testing.T) {
	tr := parse(t, "t0 w x0\nt1 w x0\nt1 r x0\nt0 w x0\n")
	e := newEngine(core.Factory(nil))
	acc := e.EnableAnalysis()
	e.Process(tr.Events)
	// e0-e1 (w-w, unordered before the direct edge), e1's read is by
	// the same thread as the write before it, e3 vs e1/e2.
	if acc.Total == 0 {
		t.Fatal("no reversible pairs found in a racy trace")
	}
	if acc.ByKind[analysis.WriteWrite] == 0 {
		t.Error("expected a w-w reversible pair")
	}
}
