package bench

import (
	"bytes"
	"strings"
	"testing"

	"treeclock/internal/gen"
)

// tinyOpts keeps harness tests fast: small suite scale, one repeat,
// small scalability sweeps.
func tinyOpts() Options {
	return Options{
		Scale:        0.03,
		Repeats:      1,
		Fig10Events:  4000,
		Fig10Threads: []int{4, 8},
	}
}

func TestRunAllCombinations(t *testing.T) {
	tr := gen.Mixed(gen.Config{Name: "combo", Threads: 6, Locks: 3, Vars: 32, Events: 3000, Seed: 1, SyncFrac: 0.3})
	for _, o := range Orders {
		for _, name := range []string{o + "-tree", o + "-vc"} {
			for _, an := range []bool{false, true} {
				r := Run(tr, Config{Engine: name, Analysis: an, Work: true})
				if r.Events != tr.Len() {
					t.Errorf("%s: events = %d, want %d", name, r.Events, tr.Len())
				}
				if r.Work.Changed == 0 {
					t.Errorf("%s: no work recorded", name)
				}
				if r.Elapsed <= 0 {
					t.Errorf("%s: non-positive elapsed time", name)
				}
			}
		}
	}
}

func TestRunVTWorkAgreesAcrossClocks(t *testing.T) {
	tr := gen.Mixed(gen.Config{Name: "w", Threads: 8, Locks: 4, Vars: 64, Events: 5000, Seed: 2, SyncFrac: 0.25})
	for _, o := range Orders {
		tc := Run(tr, Config{Engine: o + "-tree", Work: true})
		vc := Run(tr, Config{Engine: o + "-vc", Work: true})
		if tc.Work.Changed != vc.Work.Changed {
			t.Errorf("%s: VTWork differs: %d vs %d", o, tc.Work.Changed, vc.Work.Changed)
		}
		if tc.Work.Entries >= vc.Work.Entries {
			t.Errorf("%s: tree clock touched %d entries, vector clock %d — no saving",
				o, tc.Work.Entries, vc.Work.Entries)
		}
	}
}

func TestRunAnalysisPairsAgreeAcrossClocks(t *testing.T) {
	tr := gen.ReadersWriters(8, 4000, 3, true)
	for _, o := range Orders {
		tc := Run(tr, Config{Engine: o + "-tree", Analysis: true})
		vc := Run(tr, Config{Engine: o + "-vc", Analysis: true})
		if tc.Pairs != vc.Pairs {
			t.Errorf("%s: pair counts differ: %d vs %d", o, tc.Pairs, vc.Pairs)
		}
		if tc.Pairs == 0 {
			t.Errorf("%s: racy workload produced no pairs", o)
		}
	}
}

func TestRunMeanAverages(t *testing.T) {
	tr := gen.SingleLock(4, 2000, 4)
	r := RunMean(tr, Config{Engine: "hb-tree"}, 3)
	if r.Elapsed <= 0 {
		t.Error("mean elapsed must be positive")
	}
}

// TestRunPanicsOnBadPO: an engine name whose partial order the
// registry does not know is a programming error.
func TestRunPanicsOnBadPO(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad PO must panic")
		}
	}()
	tr := gen.SingleLock(2, 100, 1)
	Run(tr, Config{Engine: "quantum-tree"})
}

func TestTable1Report(t *testing.T) {
	h := NewHarness(tinyOpts())
	var buf bytes.Buffer
	h.Table1(&buf)
	out := buf.String()
	for _, want := range []string{"Table 1", "Threads", "Locks", "Sync. Events"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Report(t *testing.T) {
	h := NewHarness(tinyOpts())
	var buf bytes.Buffer
	h.Table2(&buf)
	out := buf.String()
	for _, want := range []string{"Table 2", "MAZ", "SHB", "HB", "PO + Analysis"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable3Report(t *testing.T) {
	h := NewHarness(tinyOpts())
	var buf bytes.Buffer
	h.Table3(&buf)
	out := buf.String()
	if !strings.Contains(out, "account") || !strings.Contains(out, "tradebeans-like") {
		t.Errorf("Table3 missing suite rows:\n%s", out)
	}
}

func TestFigureReports(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reports are slow")
	}
	h := NewHarness(tinyOpts())
	var buf bytes.Buffer
	h.Figure8(&buf)
	if !strings.Contains(buf.String(), "TCWork/VTWork") {
		t.Errorf("Figure8 output:\n%s", buf.String())
	}
	buf.Reset()
	h.Figure9(&buf)
	if !strings.Contains(buf.String(), "VCWork/TCWork") {
		t.Errorf("Figure9 output:\n%s", buf.String())
	}
	buf.Reset()
	h.Figure10(&buf)
	out := buf.String()
	for _, sc := range []string{"single-lock", "fifty-locks-skewed", "star", "pairwise"} {
		if !strings.Contains(out, sc) {
			t.Errorf("Figure10 missing scenario %q", sc)
		}
	}
}

func TestFigure6And7Reports(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reports are slow")
	}
	opts := tinyOpts()
	opts.Scale = 0.02
	h := NewHarness(opts)
	var buf bytes.Buffer
	h.Figure6(&buf)
	if !strings.Contains(buf.String(), "MAZ+Analysis") {
		t.Errorf("Figure6 output missing analysis panels:\n%.400s", buf.String())
	}
	buf.Reset()
	h.Figure7(&buf)
	if !strings.Contains(buf.String(), "Sync (%)") {
		t.Errorf("Figure7 output:\n%.400s", buf.String())
	}
}

func TestHarnessDefaults(t *testing.T) {
	h := NewHarness(Options{})
	if h.Opts.Scale != 1.0 || h.Opts.Repeats != 1 || h.Opts.Fig10Events == 0 || len(h.Opts.Fig10Threads) == 0 {
		t.Errorf("defaults not applied: %+v", h.Opts)
	}
	d := Defaults()
	if d.Repeats != 3 {
		t.Errorf("Defaults() = %+v", d)
	}
}
