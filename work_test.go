package treeclock_test

import (
	"testing"

	"treeclock"
	"treeclock/internal/gen"
	"treeclock/internal/trace"
)

// TestTreeClockWork pins the exact work counters of the tree-clock
// engines on fixed traces. The traversal of Algorithm 2 must compare,
// move and count exactly the same nodes whatever shape its code takes;
// a change to Join or MonotoneCopy that keeps every timestamp right but
// touches one entry more or less shows up here, and nowhere else.
func TestTreeClockWork(t *testing.T) {
	traces := map[string]*trace.Trace{}
	for _, tr := range []*trace.Trace{
		gen.Mixed(gen.Config{Name: "mixed", Threads: 8, Locks: 4, Vars: 16, Events: 3000, Seed: 7,
			SyncFrac: 0.3, LockAffinity: 2, Groups: 2, HotFrac: 0.1}),
		gen.Star(32, 2000, 1),
		gen.SingleLock(16, 2000, 2),
		gen.Pairwise(8, 2000, 3),
		gen.FiftyLocksSkewed(64, 2000, 4),
		gen.ForkJoinTree(6, 20, 5),
	} {
		traces[tr.Meta.Name] = tr
	}
	for _, c := range []struct {
		trace, engine string
		want          treeclock.WorkStats
	}{
		{"mixed", "hb-tree", treeclock.WorkStats{Entries: 3921, Changed: 3320, Joins: 171, Copies: 171}},
		{"mixed", "shb-tree", treeclock.WorkStats{Entries: 8076, Changed: 4684, Joins: 1710, Copies: 1245, DeepCopies: 16}},
		{"mixed", "maz-tree", treeclock.WorkStats{Entries: 13676, Changed: 6688, Joins: 3429, Copies: 2788}},
		{"mixed", "wcp-tree", treeclock.WorkStats{Entries: 3921, Changed: 3320, Joins: 171, Copies: 171}},
		{"star-k32", "hb-tree", treeclock.WorkStats{Entries: 6270, Changed: 3512, Joins: 969, Copies: 969}},
		{"star-k32", "shb-tree", treeclock.WorkStats{Entries: 6270, Changed: 3512, Joins: 969, Copies: 969}},
		{"star-k32", "maz-tree", treeclock.WorkStats{Entries: 6270, Changed: 3512, Joins: 969, Copies: 969}},
		{"star-k32", "wcp-tree", treeclock.WorkStats{Entries: 6270, Changed: 3512, Joins: 969, Copies: 969}},
		{"single-lock-k16", "hb-tree", treeclock.WorkStats{Entries: 23204, Changed: 10509, Joins: 999, Copies: 999}},
		{"single-lock-k16", "shb-tree", treeclock.WorkStats{Entries: 23204, Changed: 10509, Joins: 999, Copies: 999}},
		{"single-lock-k16", "maz-tree", treeclock.WorkStats{Entries: 23204, Changed: 10509, Joins: 999, Copies: 999}},
		{"single-lock-k16", "wcp-tree", treeclock.WorkStats{Entries: 23204, Changed: 10509, Joins: 999, Copies: 999}},
		{"pairwise-k8", "hb-tree", treeclock.WorkStats{Entries: 14163, Changed: 6900, Joins: 972, Copies: 972}},
		{"pairwise-k8", "shb-tree", treeclock.WorkStats{Entries: 14163, Changed: 6900, Joins: 972, Copies: 972}},
		{"pairwise-k8", "maz-tree", treeclock.WorkStats{Entries: 14163, Changed: 6900, Joins: 972, Copies: 972}},
		{"pairwise-k8", "wcp-tree", treeclock.WorkStats{Entries: 14163, Changed: 6900, Joins: 972, Copies: 972}},
		{"fifty-locks-k64", "hb-tree", treeclock.WorkStats{Entries: 75155, Changed: 32355, Joins: 950, Copies: 950}},
		{"fifty-locks-k64", "shb-tree", treeclock.WorkStats{Entries: 75155, Changed: 32355, Joins: 950, Copies: 950}},
		{"fifty-locks-k64", "maz-tree", treeclock.WorkStats{Entries: 75155, Changed: 32355, Joins: 950, Copies: 950}},
		{"fifty-locks-k64", "wcp-tree", treeclock.WorkStats{Entries: 75155, Changed: 32355, Joins: 950, Copies: 950}},
		{"fork-join-6w", "hb-tree", treeclock.WorkStats{Entries: 1862, Changed: 1052, Joins: 131, Copies: 119}},
		{"fork-join-6w", "shb-tree", treeclock.WorkStats{Entries: 3355, Changed: 1689, Joins: 252, Copies: 353}},
		{"fork-join-6w", "maz-tree", treeclock.WorkStats{Entries: 4583, Changed: 2114, Joins: 606, Copies: 467}},
		{"fork-join-6w", "wcp-tree", treeclock.WorkStats{Entries: 1862, Changed: 1052, Joins: 131, Copies: 119}},
	} {
		tr, ok := traces[c.trace]
		if !ok {
			t.Fatalf("no trace named %q", c.trace)
		}
		var got treeclock.WorkStats
		if _, err := treeclock.RunStreamSource(c.engine, treeclock.NewTraceReplayer(tr), treeclock.StreamWorkStats(&got)); err != nil {
			t.Fatalf("%s/%s: %v", c.trace, c.engine, err)
		}
		if got != c.want {
			t.Errorf("%s/%s: work %+v, want %+v", c.trace, c.engine, got, c.want)
		}
	}
}
