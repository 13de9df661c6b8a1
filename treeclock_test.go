package treeclock_test

import (
	"bytes"
	"fmt"
	"testing"

	"treeclock"
)

func TestQuickstartFlow(t *testing.T) {
	tr, err := treeclock.ParseTraceString(`
t0 acq l0
t0 w x0
t0 rel l0
t1 acq l0
t1 r x0
t1 rel l0
t2 w x0
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := treeclock.RunStreamSource("hb-tree", treeclock.NewTraceReplayer(tr))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Total == 0 {
		t.Fatal("t2's unsynchronized write must race")
	}
	// The same run with vector clocks agrees.
	resV, err := treeclock.RunStreamSource("hb-vc", treeclock.NewTraceReplayer(tr))
	if err != nil {
		t.Fatal(err)
	}
	if resV.Summary != res.Summary {
		t.Errorf("clock implementations disagree: %+v vs %+v", res.Summary, resV.Summary)
	}
}

func TestDirectClockUse(t *testing.T) {
	// Tree clocks usable directly as logical clocks, outside any
	// engine: a tiny message-passing interaction.
	const k = 3
	a := treeclock.NewTreeClock(k)
	a.Init(0)
	b := treeclock.NewTreeClock(k)
	b.Init(1)
	a.Inc(0, 1) // a: local event
	b.Inc(1, 1) // b: local event
	b.Join(a)   // a -> b message
	if b.Get(0) != 1 {
		t.Errorf("b.Get(0) = %d, want 1", b.Get(0))
	}
	vec := b.Vector(make(treeclock.Vector, k))
	if !vec.Equal(treeclock.Vector{1, 1, 0}) {
		t.Errorf("b vector = %v", vec)
	}
}

// TestAllEngineConstructors builds every registry engine over a
// replayed materialized trace, with work counting on.
func TestAllEngineConstructors(t *testing.T) {
	tr := treeclock.GenerateMixed(treeclock.GenConfig{Threads: 4, Locks: 2, Vars: 16, Events: 2000, Seed: 5, SyncFrac: 0.3})
	if err := tr.Validate(); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	for _, name := range treeclock.Engines() {
		var st treeclock.WorkStats
		res, err := treeclock.RunStreamSource(name, treeclock.NewTraceReplayer(tr), treeclock.StreamWorkStats(&st))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Events != uint64(tr.Len()) {
			t.Errorf("%s: processed %d events, want %d", name, res.Events, tr.Len())
		}
		if st.Changed == 0 {
			t.Errorf("%s: work counting recorded no work", name)
		}
	}
}

func TestTraceIOFacade(t *testing.T) {
	tr := treeclock.GenerateStar(4, 200, 1)
	var text, bin bytes.Buffer
	if err := treeclock.WriteTraceText(&text, tr); err != nil {
		t.Fatal(err)
	}
	back, err := treeclock.ParseTrace(&text)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Error("text round trip changed length")
	}
	if err := treeclock.WriteTraceBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	back2, err := treeclock.ReadTraceBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if back2.Len() != tr.Len() {
		t.Error("binary round trip changed length")
	}
	s := treeclock.ComputeTraceStats(tr)
	if s.Events != tr.Len() {
		t.Error("stats events wrong")
	}
}

func TestGeneratorsFacade(t *testing.T) {
	for _, tr := range []*treeclock.Trace{
		treeclock.GenerateSingleLock(4, 500, 1),
		treeclock.GenerateFiftyLocksSkewed(10, 500, 2),
		treeclock.GenerateStar(6, 500, 3),
		treeclock.GeneratePairwise(5, 500, 4),
		treeclock.GenerateProducerConsumer(2, 2, 500, 5),
		treeclock.GeneratePipeline(4, 500, 6),
		treeclock.GenerateBarrierPhases(4, 5, 5, 7),
		treeclock.GenerateReadersWriters(5, 500, 8, false),
		treeclock.GenerateForkJoinTree(4, 20, 9),
	} {
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", tr.Meta.Name, err)
		}
	}
}

func ExampleRunStreamSource() {
	tr, _ := treeclock.ParseTraceString("t0 w x0\nt1 r x0\nt1 w x0\n")
	res, _ := treeclock.RunStreamSource("shb-tree", treeclock.NewTraceReplayer(tr))
	fmt.Println("races found:", res.Summary.Total)
	for _, r := range res.Samples {
		fmt.Println(r)
	}
	// t1's write does not race t0's: the read's last-write edge
	// already orders them under SHB.
	// Output:
	// races found: 1
	// w-r race on x0: t0@1 vs t1@1
}
