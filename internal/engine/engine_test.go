package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"treeclock/internal/core"
	"treeclock/internal/engine"
	"treeclock/internal/gen"
	"treeclock/internal/hb"
	"treeclock/internal/maz"
	"treeclock/internal/shb"
	"treeclock/internal/trace"
	"treeclock/internal/vc"
	"treeclock/internal/vt"
)

// newRuntime builds a dynamic runtime for one partial order.
func newRuntime[C vt.Clock[C]](t *testing.T, order string, f vt.Factory[C]) *engine.Runtime[C] {
	t.Helper()
	switch order {
	case "hb":
		return engine.New[C](hb.NewSemantics[C](), f)
	case "shb":
		return engine.New[C](shb.NewSemantics[C](), f)
	case "maz":
		return engine.New[C](maz.NewSemantics[C](), f)
	}
	t.Fatalf("unknown order %q", order)
	return nil
}

var orders = []string{"hb", "shb", "maz"}

// TestDynamicMatchesPreSized is the core streaming property: a runtime
// whose clocks grow as identifiers are discovered computes exactly the
// same final timestamps as one whose clocks are allocated at the
// trace's full thread count up front.
func TestDynamicMatchesPreSized(t *testing.T) {
	traces := []*trace.Trace{
		gen.Mixed(gen.Config{Name: "mix", Threads: 9, Locks: 4, Vars: 24, Events: 3000, Seed: 3, SyncFrac: 0.3}),
		gen.Star(8, 1500, 5),
		gen.ForkJoinTree(5, 30, 7),
	}
	for _, tr := range traces {
		for _, order := range orders {
			// Tree clocks.
			dyn := newRuntime[*core.TreeClock](t, order, core.Factory(nil))
			dyn.Process(tr.Events)
			sized := newRuntime(t, order, presized(core.Factory(nil), tr.Meta.Threads))
			sized.Process(tr.Events)
			if dyn.Threads() > tr.Meta.Threads {
				t.Fatalf("%s/%s: discovered %d threads, meta says %d",
					tr.Meta.Name, order, dyn.Threads(), tr.Meta.Threads)
			}
			k := tr.Meta.Threads
			for th := 0; th < dyn.Threads(); th++ {
				got := dyn.Timestamp(vt.TID(th), vt.NewVector(k))
				want := sized.Timestamp(vt.TID(th), vt.NewVector(k))
				if !got.Equal(want) {
					t.Fatalf("%s/%s: thread %d: dynamic %v, pre-sized %v",
						tr.Meta.Name, order, th, got, want)
				}
			}
		}
	}
}

// presized wraps f so every clock is allocated k threads wide up front,
// the shape a runtime sized from trace metadata would have.
func presized[C any](f vt.Factory[C], k int) vt.Factory[C] {
	return func(int) C { return f(k) }
}

// TestRuntimeDiscoversIdentifiers feeds a trace whose identifiers
// appear out of order and checks the discovered Meta.
func TestRuntimeDiscoversIdentifiers(t *testing.T) {
	src := trace.NewScanner(strings.NewReader(`
t9 w x41
t9 acq l7
t9 rel l7
t2 acq l7
t2 r x41
t2 rel l7
`))
	rt := engine.New[*vc.VectorClock](hb.NewSemantics[*vc.VectorClock](), vc.Factory(nil))
	det := rt.EnableRaceDetection()
	if err := rt.ProcessSource(src); err != nil {
		t.Fatal(err)
	}
	meta := rt.Meta()
	if meta.Threads != 2 || meta.Locks != 1 || meta.Vars != 1 {
		t.Errorf("discovered meta = %+v, want 2 threads, 1 lock, 1 var", meta)
	}
	if rt.Events() != 6 {
		t.Errorf("Events() = %d, want 6", rt.Events())
	}
	if det.Acc.Total != 0 {
		t.Errorf("lock-ordered accesses flagged racy: %d", det.Acc.Total)
	}
}

// TestRuntimeSparseThreadIDs exercises growth with a thread id far
// beyond anything seen before (binary traces don't intern ids).
func TestRuntimeSparseThreadIDs(t *testing.T) {
	events := []trace.Event{
		{T: 0, Obj: 0, Kind: trace.Write},
		{T: 40, Obj: 0, Kind: trace.Write},
		{T: 3, Obj: 0, Kind: trace.Read},
	}
	for _, order := range orders {
		rt := newRuntime[*core.TreeClock](t, order, core.Factory(nil))
		var total uint64
		if order == "maz" {
			acc := rt.EnableAnalysis()
			rt.Process(events)
			total = acc.Total
		} else {
			det := rt.EnableRaceDetection()
			rt.Process(events)
			total = det.Acc.Total
		}
		if rt.Threads() != 41 {
			t.Errorf("%s: Threads() = %d, want 41", order, rt.Threads())
		}
		if order == "hb" && total != 2 {
			// w0-w40 (write-write) and w40-r3 (write-read): the
			// FastTrack detector checks reads against the last write.
			t.Errorf("hb: %d races, want 2", total)
		}
	}
}

// TestForkJoinAcrossGrowth checks fork targets create and order the
// child thread correctly when the child id triggers growth.
func TestForkJoinAcrossGrowth(t *testing.T) {
	tr, err := trace.ParseTextString(`
t0 w x0
t0 fork t1
t1 r x0
t0 join t1
t0 w x0
`)
	if err != nil {
		t.Fatal(err)
	}
	rt := engine.New[*core.TreeClock](hb.NewSemantics[*core.TreeClock](), core.Factory(nil))
	det := rt.EnableRaceDetection()
	rt.Process(tr.Events)
	if det.Acc.Total != 0 {
		t.Errorf("fork/join-ordered accesses flagged racy: %v", det.Acc.Samples)
	}
	got := rt.Timestamp(0, vt.NewVector(rt.Threads()))
	if !got.Equal(vt.Vector{4, 1}) { // t0: w, fork, join, w; knows t1@1
		t.Errorf("final t0 timestamp %v, want [4, 1]", got)
	}
}

// TestProcessSourceConsumptionModes runs one trace through every
// consumption mode of ProcessSource — per-event scalar, caller-buffer
// batches (via the in-memory replayer) and the pipelined zero-copy
// producer — and checks the final timestamps are identical.
func TestProcessSourceConsumptionModes(t *testing.T) {
	tr := gen.Mixed(gen.Config{Name: "modes", Threads: 8, Locks: 4, Vars: 32, Events: 4000, Seed: 9, SyncFrac: 0.3})
	for _, order := range orders {
		ref := newRuntime[*core.TreeClock](t, order, core.Factory(nil))
		ref.Process(tr.Events)

		scalar := newRuntime[*core.TreeClock](t, order, core.Factory(nil))
		if err := scalar.ProcessScalar(trace.NewReplayer(tr)); err != nil {
			t.Fatalf("%s: scalar: %v", order, err)
		}
		batched := newRuntime[*core.TreeClock](t, order, core.Factory(nil))
		if err := batched.ProcessSource(trace.NewReplayer(tr)); err != nil {
			t.Fatalf("%s: batched: %v", order, err)
		}
		smallBuf := newRuntime[*core.TreeClock](t, order, core.Factory(nil))
		if err := smallBuf.ProcessBatches(trace.NewReplayer(tr), make([]trace.Event, 7)); err != nil {
			t.Fatalf("%s: small buffer: %v", order, err)
		}
		piped := newRuntime[*core.TreeClock](t, order, core.Factory(nil))
		p := trace.NewPipeline(trace.NewReplayer(tr), 3, 64)
		if err := piped.ProcessSource(p); err != nil {
			t.Fatalf("%s: pipelined: %v", order, err)
		}
		p.Close()

		k := tr.Meta.Threads
		for _, rt := range []*engine.Runtime[*core.TreeClock]{scalar, batched, smallBuf, piped} {
			if rt.Events() != uint64(tr.Len()) {
				t.Fatalf("%s: processed %d events, want %d", order, rt.Events(), tr.Len())
			}
			for th := 0; th < rt.Threads(); th++ {
				got := rt.Timestamp(vt.TID(th), vt.NewVector(k))
				want := ref.Timestamp(vt.TID(th), vt.NewVector(k))
				if !got.Equal(want) {
					t.Fatalf("%s: thread %d: %v, want %v", order, th, got, want)
				}
			}
		}
	}
}

// TestRuntimeLockPaths pins the runtime's uniform dispatch on the
// degenerate lock shapes the streaming engines must tolerate (streams
// are analyzed without prior validation unless the caller opts in):
// an acquire of a lock that is never released, and a release of a lock
// that was never acquired. The behavior is defined by the dispatch
// rules alone — acquire joins C_ℓ (zero for an untouched lock),
// release overwrites C_ℓ — and must be identical for both clock data
// structures.
func TestRuntimeLockPaths(t *testing.T) {
	t.Run("acquire-never-released", func(t *testing.T) {
		// t0's critical section never closes; t1's acquire of the same
		// lock joins the zero lock clock, so no cross-thread edge forms
		// and the writes race.
		events := []trace.Event{
			{T: 0, Obj: 0, Kind: trace.Acquire},
			{T: 0, Obj: 0, Kind: trace.Write},
			{T: 1, Obj: 0, Kind: trace.Acquire},
			{T: 1, Obj: 0, Kind: trace.Write},
		}
		tcRT := newRuntime[*core.TreeClock](t, "hb", core.Factory(nil))
		tcDet := tcRT.EnableRaceDetection()
		tcRT.Process(events)
		vcRT := newRuntime[*vc.VectorClock](t, "hb", vc.Factory(nil))
		vcDet := vcRT.EnableRaceDetection()
		vcRT.Process(events)
		for name, det := range map[string]uint64{"tree": tcDet.Acc.Total, "vc": vcDet.Acc.Total} {
			if det != 1 {
				t.Errorf("%s: races = %d, want 1 (no release, no ordering)", name, det)
			}
		}
		want := []vt.Vector{{2, 0}, {0, 2}}
		for th := 0; th < 2; th++ {
			got := tcRT.Timestamp(vt.TID(th), vt.NewVector(2))
			if !got.Equal(want[th]) {
				t.Errorf("tree: thread %d timestamp %v, want %v", th, got, want[th])
			}
			if !vcRT.Timestamp(vt.TID(th), vt.NewVector(2)).Equal(want[th]) {
				t.Errorf("vc: thread %d timestamp diverges from pinned %v", th, want[th])
			}
		}
	})

	t.Run("release-without-acquire", func(t *testing.T) {
		// The unmatched release still publishes t0's clock into C_ℓ, so
		// t1's later acquire does pick up an edge. This is the defined
		// (if meaningless) semantics for malformed streams; validation
		// is the caller's opt-in.
		events := []trace.Event{
			{T: 0, Obj: 0, Kind: trace.Write},
			{T: 0, Obj: 0, Kind: trace.Release},
			{T: 1, Obj: 0, Kind: trace.Acquire},
			{T: 1, Obj: 0, Kind: trace.Write},
		}
		rt := newRuntime[*core.TreeClock](t, "hb", core.Factory(nil))
		det := rt.EnableRaceDetection()
		rt.Process(events)
		if det.Acc.Total != 0 {
			t.Errorf("races = %d, want 0 (release published the clock)", det.Acc.Total)
		}
		if got := rt.Timestamp(1, vt.NewVector(2)); !got.Equal(vt.Vector{2, 2}) {
			t.Errorf("t1 timestamp %v, want [2, 2]", got)
		}
	})

	t.Run("fork-join-interleaved-with-locks", func(t *testing.T) {
		// The child is forked while the parent holds a lock; the child
		// releases nothing but its write is ordered by the fork edge,
		// and the parent's post-join read is ordered by the join edge.
		tr, err := trace.ParseTextString(`
t0 acq l0
t0 fork t1
t1 w x0
t1 acq l1
t1 rel l1
t0 rel l0
t0 join t1
t0 r x0
`)
		if err != nil {
			t.Fatal(err)
		}
		for _, order := range orders {
			rt := newRuntime[*core.TreeClock](t, order, core.Factory(nil))
			var total uint64
			if order == "maz" {
				acc := rt.EnableAnalysis()
				rt.Process(tr.Events)
				total = acc.Total
			} else {
				det := rt.EnableRaceDetection()
				rt.Process(tr.Events)
				total = det.Acc.Total
			}
			if total != 0 {
				t.Errorf("%s: fork/join-ordered accesses flagged: %d", order, total)
			}
			if got := rt.Timestamp(0, vt.NewVector(2)); !got.Equal(vt.Vector{5, 3}) {
				t.Errorf("%s: t0 timestamp %v, want [5, 3]", order, got)
			}
		}
	})
}

// hookRecorder records the order and arguments of every optional-hook
// invocation, proving the runtime detects the extension interfaces and
// calls them after its uniform handling (ct already carries the
// event's timestamp).
type hookRecorder[C vt.Clock[C]] struct {
	calls []string
}

func (h *hookRecorder[C]) Read(rt *engine.Runtime[C], t vt.TID, x int32, ct C)  {}
func (h *hookRecorder[C]) Write(rt *engine.Runtime[C], t vt.TID, x int32, ct C) {}

func (h *hookRecorder[C]) Acquire(rt *engine.Runtime[C], t vt.TID, l int32, ct C) {
	h.calls = append(h.calls, fmt.Sprintf("acq t%d l%d @%d", t, l, ct.Get(t)))
}
func (h *hookRecorder[C]) Release(rt *engine.Runtime[C], t vt.TID, l int32, ct C) {
	h.calls = append(h.calls, fmt.Sprintf("rel t%d l%d @%d", t, l, ct.Get(t)))
}
func (h *hookRecorder[C]) Fork(rt *engine.Runtime[C], t vt.TID, u vt.TID, ct C) {
	h.calls = append(h.calls, fmt.Sprintf("fork t%d t%d @%d", t, u, ct.Get(t)))
}
func (h *hookRecorder[C]) Join(rt *engine.Runtime[C], t vt.TID, u vt.TID, ct C) {
	h.calls = append(h.calls, fmt.Sprintf("join t%d t%d @%d", t, u, ct.Get(t)))
}

// TestOptionalHooksDispatch drives every sync event kind through a
// plugin implementing both extension interfaces and checks each hook
// fires exactly once, in trace order, with the event's own local time.
func TestOptionalHooksDispatch(t *testing.T) {
	rec := &hookRecorder[*vc.VectorClock]{}
	rt := engine.New[*vc.VectorClock](rec, vc.Factory(nil))
	tr, err := trace.ParseTextString(`
t0 acq l0
t0 fork t1
t1 w x0
t0 rel l0
t0 join t1
`)
	if err != nil {
		t.Fatal(err)
	}
	rt.Process(tr.Events)
	want := []string{
		"acq t0 l0 @1",
		"fork t0 t1 @2",
		"rel t0 l0 @3",
		"join t0 t1 @4",
	}
	if len(rec.calls) != len(want) {
		t.Fatalf("hook calls = %v, want %v", rec.calls, want)
	}
	for i := range want {
		if rec.calls[i] != want[i] {
			t.Errorf("call %d = %q, want %q", i, rec.calls[i], want[i])
		}
	}
}

// TestHooksNotDetectedForPlainSemantics double-checks the baseline
// plugins keep the fast path (no extension interfaces satisfied).
func TestHooksNotDetectedForPlainSemantics(t *testing.T) {
	var s any = hb.NewSemantics[*vc.VectorClock]()
	if _, ok := s.(engine.LockSemantics[*vc.VectorClock]); ok {
		t.Error("hb semantics unexpectedly implements LockSemantics")
	}
	var m any = maz.NewSemantics[*vc.VectorClock]()
	if _, ok := m.(engine.ThreadSemantics[*vc.VectorClock]); ok {
		t.Error("maz semantics unexpectedly implements ThreadSemantics")
	}
}
