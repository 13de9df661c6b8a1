package treeclock_test

// Month-long-stream churn soaks: the three residual-state growth
// vectors — clock width under thread churn, rule-(a) summaries under
// variable churn, interner tables under identifier-name churn — must
// plateau under their caps over event counts far beyond the live
// spaces, while every analysis result stays identical to the uncapped
// run's. Short mode scales the event counts down for CI; the full runs
// cover the multi-million-event shapes the soak lane measures.

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"treeclock"
)

// churnEvents picks the soak length: millions of events normally, a
// CI-sized slice in short mode.
func churnEvents(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

// TestSlotReclaimMatchesUnreclaimed runs the thread-churn workload
// through every non-predictive engine with and without slot
// reclamation: the race summary must be identical (reclamation is a
// representation change, not a semantic one), and the tree- and
// vector-clock engines must agree with each other under reclamation.
func TestSlotReclaimMatchesUnreclaimed(t *testing.T) {
	// Modest length: the unreclaimed baselines grow k with every fork,
	// and their O(k) clock operations make long runs quadratic.
	const n = 12_000
	newSrc := func() treeclock.EventSource {
		return treeclock.LimitEvents(treeclock.GenerateForkChurnStream(6, 20260807), n)
	}
	for _, order := range []string{"hb", "shb", "maz"} {
		var withReclaim []*treeclock.StreamResult
		for _, clock := range []string{"tree", "vc"} {
			engine := order + "-" + clock
			plain, err := treeclock.RunStreamSource(engine, newSrc())
			if err != nil {
				t.Fatalf("%s: %v", engine, err)
			}
			reclaimed, err := treeclock.RunStreamSource(engine, newSrc(), treeclock.WithSlotReclaim())
			if err != nil {
				t.Fatalf("%s reclaim: %v", engine, err)
			}
			if plain.Summary != reclaimed.Summary {
				t.Errorf("%s: summary with reclamation %+v, without %+v", engine, reclaimed.Summary, plain.Summary)
			}
			if reclaimed.Mem == nil || reclaimed.Mem.RetiredSlots == 0 {
				t.Errorf("%s: reclamation retired no slots: %+v", engine, reclaimed.Mem)
			}
			withReclaim = append(withReclaim, reclaimed)
		}
		// Tree and vector clocks see the same remapped stream, so their
		// full reports (summary, samples, slot timestamps) must agree.
		withReclaim[0].Engine, withReclaim[1].Engine = "", ""
		withReclaim[0].Mem, withReclaim[1].Mem = nil, nil
		if !reflect.DeepEqual(withReclaim[0], withReclaim[1]) {
			t.Errorf("%s: tree and vc disagree under reclamation:\ntree: %+v\nvc:   %+v", order, withReclaim[0], withReclaim[1])
		}
	}
}

// TestSlotReclaimParallelMatchesSequential pins that the slot remap is
// a pure function of the event prefix: sharded replicas remap in
// lockstep, so the parallel run's report equals the sequential one's.
func TestSlotReclaimParallelMatchesSequential(t *testing.T) {
	const n = 30_000
	newSrc := func() treeclock.EventSource {
		return treeclock.LimitEvents(treeclock.GenerateForkChurnStream(5, 7), n)
	}
	seq, err := treeclock.RunStreamSource("hb-tree", newSrc(), treeclock.WithSlotReclaim())
	if err != nil {
		t.Fatal(err)
	}
	par, err := treeclock.RunStreamSource("hb-tree", newSrc(), treeclock.WithSlotReclaim(), treeclock.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Summary != par.Summary || !reflect.DeepEqual(seq.Samples, par.Samples) || !reflect.DeepEqual(seq.Timestamps, par.Timestamps) {
		t.Errorf("parallel reclamation diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestForkChurnSlotPlateau is the tentpole soak for thread-slot
// reclamation: external thread ids grow without bound, but the clock
// capacity k (slots ever issued) must plateau near the ring of
// concurrently live threads, with slots continuously retired and
// reused.
func TestForkChurnSlotPlateau(t *testing.T) {
	const ring = 8
	n := churnEvents(50_000_000, 2_000_000)
	res, err := treeclock.RunStreamSource("hb-tree",
		treeclock.LimitEvents(treeclock.GenerateForkChurnStream(ring, 31), n),
		treeclock.WithSlotReclaim())
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != uint64(n) {
		t.Fatalf("processed %d of %d events", res.Events, n)
	}
	ms := res.Mem
	if ms == nil {
		t.Fatal("no retained-state accounting under reclamation")
	}
	// Live threads never exceed ring+1 (coordinator plus ring); the
	// reuse gate may strand a few extra slots early on, but k must not
	// track the millions of external ids.
	if bound := 2*(ring+1) + 4; ms.ThreadSlots > bound {
		t.Errorf("clock capacity grew to %d slots over %d events, want <= %d (plateau)", ms.ThreadSlots, n, bound)
	}
	if ms.RetiredSlots == 0 || ms.ReusedSlots == 0 {
		t.Errorf("churn soak retired %d and reused %d slots, want both > 0", ms.RetiredSlots, ms.ReusedSlots)
	}
	t.Logf("%d events: k=%d free=%d retired=%d reused=%d races=%d",
		n, ms.ThreadSlots, ms.FreeSlots, ms.RetiredSlots, ms.ReusedSlots, res.Summary.Total)
}

// TestSummaryCapStreamPlateau exercises WithSummaryCap through the
// public stream API on the variable-churn workload: identical results,
// bounded live summaries, nonzero evictions. (The engine-level
// differential lives in internal/wcp; this pins the option plumbing
// and the MemStats surfacing.)
func TestSummaryCapStreamPlateau(t *testing.T) {
	n := churnEvents(2_000_000, 200_000)
	const cap = 64
	newSrc := func() treeclock.EventSource {
		return treeclock.LimitEvents(treeclock.GenerateChurningVarsStream(8, 256, 10, 33), n)
	}
	capped, err := treeclock.RunStreamSource("wcp-tree", newSrc(), treeclock.WithSummaryCap(cap))
	if err != nil {
		t.Fatal(err)
	}
	uncapped, err := treeclock.RunStreamSource("wcp-tree", newSrc())
	if err != nil {
		t.Fatal(err)
	}
	if capped.Summary != uncapped.Summary {
		t.Errorf("capped summary %+v, uncapped %+v", capped.Summary, uncapped.Summary)
	}
	if capped.Mem == nil || uncapped.Mem == nil {
		t.Fatal("wcp run reported no MemStats")
	}
	if bound := cap + cap/8 + 1 + 8; capped.Mem.SummaryVectors > bound {
		t.Errorf("capped run retains %d summary vectors, want <= %d", capped.Mem.SummaryVectors, bound)
	}
	if capped.Mem.SummaryEvictions == 0 {
		t.Error("capped run evicted nothing")
	}
	if uncapped.Mem.SummaryVectors <= 4*cap {
		t.Errorf("uncapped run retained only %d summary vectors — workload no longer stresses the cap", uncapped.Mem.SummaryVectors)
	}
}

// TestInternCapPlateau streams the identifier-name-churn text workload
// with and without an intern cap: identical results (retired names are
// never revisited, so evictions are invisible), live names bounded,
// evictions counted — while the uncapped interner grows with every
// burst.
func TestInternCapPlateau(t *testing.T) {
	sections := churnEvents(400_000, 60_000)
	const capPer = 64 // per identifier space (threads, locks, vars)
	run := func(opts ...treeclock.StreamOption) *treeclock.StreamResult {
		t.Helper()
		res, err := treeclock.RunStream("hb-tree", treeclock.GenerateNameChurnText(4, 6, sections, 11), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	capped := run(treeclock.WithInternCap(capPer))
	uncapped := run()
	if capped.Summary != uncapped.Summary {
		t.Errorf("capped summary %+v, uncapped %+v", capped.Summary, uncapped.Summary)
	}
	if capped.Mem == nil {
		t.Fatal("capped run reported no MemStats")
	}
	if capped.Mem.InternEvictions == 0 {
		t.Error("capped run evicted no names")
	}
	if live, bound := capped.Mem.InternedNames, 3*capPer; live > bound {
		t.Errorf("capped run holds %d live names, want <= %d", live, bound)
	}
	if uncapped.Mem != nil && uncapped.Mem.InternedNames != 0 {
		t.Errorf("uncapped run surfaced interner accounting without a cap: %+v", uncapped.Mem)
	}
}

// TestSlotReclaimRejectedForWCP pins the documented exclusion: the
// predictive engines keep per-thread rule-(a) state that outlives
// joins, so reclamation must refuse them with a descriptive error.
func TestSlotReclaimRejectedForWCP(t *testing.T) {
	src := treeclock.LimitEvents(treeclock.GenerateHotLockStream(4, 17), 100)
	_, err := treeclock.RunStreamSource("wcp-tree", src, treeclock.WithSlotReclaim())
	if err == nil {
		t.Fatal("WithSlotReclaim accepted for wcp-tree")
	}
	if !strings.Contains(err.Error(), "slot reclamation") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// TestInternCapRequiresText pins that WithInternCap refuses sources
// without interned names instead of silently doing nothing.
func TestInternCapRequiresText(t *testing.T) {
	tr := treeclock.GenerateMixed(treeclock.GenConfig{Name: "bin", Threads: 3, Locks: 2, Vars: 8, Events: 200, Seed: 5})
	var b bytes.Buffer
	if err := treeclock.WriteTraceBinary(&b, tr); err != nil {
		t.Fatal(err)
	}
	_, err := treeclock.RunStream("hb-tree", &b, treeclock.StreamBinary(), treeclock.WithInternCap(10))
	if err == nil {
		t.Fatal("WithInternCap accepted for binary input")
	}
	if !strings.Contains(err.Error(), "text input") {
		t.Errorf("unhelpful error: %v", err)
	}
}
