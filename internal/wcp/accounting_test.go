package wcp

// Regression coverage for retained-state accounting under history
// churn: recycled history chunks must carry no stale snapshots (a
// stale flat rel pins its dropped vector against the collector; a
// stale sparse rel holds dangling segment refs a double Drop would
// subtract twice), and the unsigned accounting totals must never
// underflow however often entries are dropped and chunks recycled.

import (
	"testing"

	"treeclock/internal/engine"
	"treeclock/internal/gen"
	"treeclock/internal/trace"
	"treeclock/internal/vc"
	"treeclock/internal/vt"
)

// sane is the ceiling that catches uint64 underflow: a wrapped
// subtraction lands within a few increments of 2^64, astronomically
// above any honest retained-state figure for these workloads.
const sane = uint64(1) << 40

func checkStats(t *testing.T, label string, ms engine.MemStats) {
	t.Helper()
	if ms.RetainedBytes > sane {
		t.Fatalf("%s: RetainedBytes %d — unsigned underflow", label, ms.RetainedBytes)
	}
	if ms.FreeVectors < 0 {
		t.Fatalf("%s: FreeVectors %d negative", label, ms.FreeVectors)
	}
	if ms.HistEntries < 0 {
		t.Fatalf("%s: HistEntries %d negative", label, ms.HistEntries)
	}
}

// churnAccounting streams a compaction-heavy workload, sampling the
// accounting at every batch so a transient underflow cannot hide
// behind a later compensating error, and finally checks every parked
// history chunk holds only zero snapshots.
func churnAccounting[C vt.Clock[C], W vt.WeakClock[W, S], S any, F vt.SnapStore[W, S]](
	t *testing.T, label string, sem *SemanticsOf[C, W, S, F], f vt.Factory[C], stale func(*S) bool, n int) {
	t.Helper()
	e := engine.New(sem, f)
	e.EnableAnalysis()
	src := gen.Take(gen.HotLock(soakThreads, 20260807), n)
	buf := make([]trace.Event, 512)
	for {
		k, ok := trace.ReadBatch(src, buf)
		for i := 0; i < k; i++ {
			e.Step(buf[i])
		}
		checkStats(t, label, sem.MemStats())
		if !ok {
			break
		}
	}
	ms := sem.MemStats()
	if ms.DroppedEntries == 0 {
		t.Fatalf("%s: compaction never ran — the test exercised nothing", label)
	}
	for _, chunk := range sem.histFree {
		for i := range chunk {
			if stale(&chunk[i].rel) {
				t.Fatalf("%s: recycled history chunk slot %d holds a stale snapshot %+v", label, i, chunk[i].rel)
			}
		}
	}
	// The aggregate store accounting must agree with a full per-lock
	// walk (lockStat visits every live snapshot individually), so a
	// drop that was double-counted in one of the two paths shows up as
	// a mismatch.
	var walked uint64
	for l := range sem.locks {
		walked += sem.lockStat(int32(l)).RetainedBytes
	}
	if walked > sane {
		t.Fatalf("%s: per-lock walk retained %d bytes — unsigned underflow", label, walked)
	}
}

func TestWCPAccountingNeverNegativeUnderChurn(t *testing.T) {
	n := 60_000
	if testing.Short() {
		n = 20_000
	}
	t.Run("sparse", func(t *testing.T) {
		churnAccounting(t, "sparse", NewSemantics[*vc.VectorClock](), vc.Factory(nil),
			func(s *vt.SparseSnap) bool { return !s.IsZero() }, n)
	})
	t.Run("flat", func(t *testing.T) {
		churnAccounting(t, "flat", NewSemanticsFlat[*vc.VectorClock](), vc.Factory(nil),
			func(s *vt.Vector) bool { return *s != nil }, n)
	})
}
