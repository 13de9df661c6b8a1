package wcp

// Differential pinning of the sparse weak-clock transport against the
// flat-vector baseline: same corpus as the oracle tests, engines run
// in lockstep, every event's timestamp and every race sample must be
// byte-identical — the representations may differ only in cost.

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"treeclock/internal/core"
	"treeclock/internal/engine"
	"treeclock/internal/gen"
	"treeclock/internal/oracle"
	"treeclock/internal/vc"
	"treeclock/internal/vt"
)

// TestWCPFlatSparseByteIdentical steps the sparse (default) and flat
// engines through the differential corpus side by side, comparing
// per-event timestamps, race reports and retained-state counters
// (everything except the representation-specific byte/pool numbers).
func TestWCPFlatSparseByteIdentical(t *testing.T) {
	for _, tr := range randomTraces() {
		semS, semF := NewSemantics[*vc.VectorClock](), NewSemanticsFlat[*vc.VectorClock]()
		sp, fl := engine.New(semS, vc.Factory(nil)), engine.New(semF, vc.Factory(nil))
		aS := sp.EnableAnalysis()
		aF := fl.EnableAnalysis()
		k := tr.Meta.Threads
		lt := tr.LocalTimes()
		dstS, dstF := vt.NewVector(k), vt.NewVector(k)
		for i, ev := range tr.Events {
			sp.Step(ev)
			fl.Step(ev)
			got := semS.Timestamp(ev.T, lt[i], dstS)
			want := semF.Timestamp(ev.T, lt[i], dstF)
			if !got.Equal(want) {
				t.Fatalf("%s: event %d (%v): sparse %v, flat %v", tr.Meta.Name, i, ev, got, want)
			}
		}
		if aS.Summary() != aF.Summary() {
			t.Errorf("%s: summaries diverge: sparse %+v, flat %+v", tr.Meta.Name, aS.Summary(), aF.Summary())
		}
		for i := range aS.Samples {
			if i < len(aF.Samples) && aS.Samples[i] != aF.Samples[i] {
				t.Errorf("%s: sample %d diverges: %v vs %v", tr.Meta.Name, i, aS.Samples[i], aF.Samples[i])
			}
		}
		msS, msF := semS.MemStats(), semF.MemStats()
		if msS.HistEntries != msF.HistEntries || msS.PeakLockHist != msF.PeakLockHist ||
			msS.DroppedEntries != msF.DroppedEntries || msS.SummaryVectors != msF.SummaryVectors {
			t.Errorf("%s: retained-state counters diverge:\nsparse %+v\nflat   %+v", tr.Meta.Name, msS, msF)
		}
	}
}

// TestWCPFlatSparseAcrossClocks repeats the byte-identity check with
// the tree-clock backbone (transport and backbone must compose
// independently).
func TestWCPFlatSparseAcrossClocks(t *testing.T) {
	for _, tr := range randomTraces() {
		semS, semF := NewSemantics[*core.TreeClock](), NewSemanticsFlat[*core.TreeClock]()
		sp, fl := engine.New(semS, core.Factory(nil)), engine.New(semF, core.Factory(nil))
		aS := sp.EnableAnalysis()
		aF := fl.EnableAnalysis()
		sp.Process(tr.Events)
		fl.Process(tr.Events)
		if aS.Summary() != aF.Summary() {
			t.Errorf("%s: summaries diverge: sparse %+v, flat %+v", tr.Meta.Name, aS.Summary(), aF.Summary())
		}
		k := tr.Meta.Threads
		for th := 0; th < sp.Threads(); th++ {
			got := timestamp(sp, semS, vt.TID(th), vt.NewVector(k))
			want := timestamp(fl, semF, vt.TID(th), vt.NewVector(k))
			if !got.Equal(want) {
				t.Fatalf("%s: thread %d: sparse %v, flat %v", tr.Meta.Name, th, got, want)
			}
		}
	}
}

// TestWCPFlatSnapshotResume is the flat transport's crash-equivalence
// check at the engine level, below the root crash matrix's session
// runs: a flat engine snapshotted mid-trace and restored into a fresh
// one must finish in the uninterrupted flat run's exact state — its next
// snapshot byte for byte, reports, timestamps and MemStats — and both
// must agree with the sparse engine. This keeps FlatWeak's
// SaveWeak/LoadWeak and the flat store's state under test.
func TestWCPFlatSnapshotResume(t *testing.T) {
	t.Run("tree", func(t *testing.T) { flatSnapshotResume(t, core.Factory(nil)) })
	t.Run("vc", func(t *testing.T) { flatSnapshotResume(t, vc.Factory(nil)) })
}

func flatSnapshotResume[C vt.Clock[C]](t *testing.T, f vt.Factory[C]) {
	for _, tr := range randomTraces() {
		semS, semF := NewSemantics[C](), NewSemanticsFlat[C]()
		sparse, full := engine.New(semS, f), engine.New(semF, f)
		aS, aF := sparse.EnableAnalysis(), full.EnableAnalysis()
		sparse.Process(tr.Events)
		full.Process(tr.Events)
		var want bytes.Buffer
		if err := full.Snapshot(&want); err != nil {
			t.Fatal(err)
		}
		if aS.Summary() != aF.Summary() || !slices.Equal(aS.Samples, aF.Samples) {
			t.Fatalf("%s: flat report %+v diverges from sparse %+v", tr.Meta.Name, aF.Summary(), aS.Summary())
		}
		for _, cut := range []int{len(tr.Events) / 3, 2 * len(tr.Events) / 3} {
			first := engine.New(NewSemanticsFlat[C](), f)
			first.EnableAnalysis()
			first.Process(tr.Events[:cut])
			var ck bytes.Buffer
			if err := first.Snapshot(&ck); err != nil {
				t.Fatal(err)
			}
			semR := NewSemanticsFlat[C]()
			resumed := engine.New(semR, f)
			aR := resumed.EnableAnalysis()
			if err := resumed.Restore(&ck); err != nil {
				t.Fatalf("%s: restore at %d: %v", tr.Meta.Name, cut, err)
			}
			resumed.Process(tr.Events[cut:])
			var got bytes.Buffer
			if err := resumed.Snapshot(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s: resumed at %d: final state differs from the uninterrupted flat run's", tr.Meta.Name, cut)
			}
			if aR.Summary() != aF.Summary() || !slices.Equal(aR.Samples, aF.Samples) {
				t.Errorf("%s: resumed at %d: report %+v, uninterrupted %+v", tr.Meta.Name, cut, aR.Summary(), aF.Summary())
			}
			if semR.MemStats() != semF.MemStats() {
				t.Errorf("%s: resumed at %d: MemStats %+v, uninterrupted %+v", tr.Meta.Name, cut, semR.MemStats(), semF.MemStats())
			}
			k := tr.Meta.Threads
			for th := 0; th < sparse.Threads(); th++ {
				g := timestamp(resumed, semR, vt.TID(th), vt.NewVector(k))
				w := timestamp(sparse, semS, vt.TID(th), vt.NewVector(k))
				if !g.Equal(w) {
					t.Fatalf("%s: resumed at %d: thread %d: flat %v, sparse %v", tr.Meta.Name, cut, th, g, w)
				}
			}
		}
	}
}

// churnTrace grows the thread space in waves: wave w brings threads
// 0..2+w through a guarded conflicting write on one shared lock, so
// every release snapshots a larger vector than the last wave's, every
// parked snapshot buffer goes stale at each growth step, and rule-(b)
// absorption plus compaction keep the free lists churning.
func churnTrace(waves int) string {
	var b strings.Builder
	for w := 0; w < waves; w++ {
		for th := 0; th <= 2+w; th++ {
			fmt.Fprintf(&b, "t%d acq l0\nt%d w x0\nt%d rel l0\n", th, th, th)
		}
	}
	return b.String()
}

// TestWCPThreadChurnAcrossReleases is the regression test for the
// stale-capacity free-list bug: recycled snapshot buffers must be
// re-grown after mid-stream thread growth (vt's
// TestFlatStoreSnapshotRegrowsStaleBuffers pins the store-level fix;
// this pins the engine behavior that triggers it). Both transports are
// run streaming — the thread space genuinely grows mid-run — and
// checked against the oracle event by event, and recycling must still
// be live at the end.
func TestWCPThreadChurnAcrossReleases(t *testing.T) {
	tr := parse(t, churnTrace(6))
	res := oracle.Timestamps(tr, oracle.WCP)
	lt := tr.LocalTimes()
	k := tr.Meta.Threads

	semS, semF := NewSemantics[*vc.VectorClock](), NewSemanticsFlat[*vc.VectorClock]()
	sp, fl := engine.New(semS, vc.Factory(nil)), engine.New(semF, vc.Factory(nil))
	dstS, dstF := vt.NewVector(k), vt.NewVector(k)
	for i, ev := range tr.Events {
		sp.Step(ev)
		fl.Step(ev)
		gotS := semS.Timestamp(ev.T, lt[i], dstS)
		gotF := semF.Timestamp(ev.T, lt[i], dstF)
		want := res.Post[i]
		if !gotS.Equal(want) {
			t.Fatalf("sparse: event %d (%v): timestamp %v, oracle %v", i, ev, gotS, want)
		}
		if !gotF.Equal(want) {
			t.Fatalf("flat: event %d (%v): timestamp %v, oracle %v", i, ev, gotF, want)
		}
	}
	for th := 0; th < k; th++ {
		got := timestamp(fl, semF, vt.TID(th), vt.NewVector(k))
		want := timestamp(sp, semS, vt.TID(th), vt.NewVector(k))
		if !got.Equal(want) {
			t.Fatalf("thread %d: flat %v, sparse %v", th, got, want)
		}
	}
	msF := semF.MemStats()
	if msF.DroppedEntries == 0 {
		t.Fatalf("churn workload never compacted — the free list was never exercised: %+v", msF)
	}
	if msF.FreeVectors == 0 {
		t.Errorf("flat free list empty after churn — stale buffers were discarded, not regrown: %+v", msF)
	}
}

// TestWCPSparsePoolRecyclesAcrossCompaction pins the sparse analogue:
// segments of compacted history entries circulate through the shared
// pool instead of garbage.
func TestWCPSparsePoolRecyclesAcrossCompaction(t *testing.T) {
	sem := NewSemantics[*vc.VectorClock]()
	if err := engine.New(sem, vc.Factory(nil)).ProcessSource(gen.Take(gen.HotLock(6, 11), 30000)); err != nil {
		t.Fatalf("stream: %v", err)
	}
	ms := sem.MemStats()
	if ms.DroppedEntries == 0 {
		t.Fatalf("hot-lock run compacted nothing: %+v", ms)
	}
	if ms.FreeVectors == 0 {
		t.Errorf("sparse segment pool empty after compaction: %+v", ms)
	}
}
