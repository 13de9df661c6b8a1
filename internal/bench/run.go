// Package bench is the experiment harness: it runs registry engines
// (treeclock.RunStreamSource over an in-memory trace replay — the same
// path every streaming caller takes) over generated workloads with both
// clock data structures, measures wall-clock time and data-structure
// work, and formats the paper's Tables 1–3 and Figures 6–10 (plus an
// ablation study) as text reports.
package bench

import (
	"fmt"
	"time"

	"treeclock"
	"treeclock/internal/engine"
	"treeclock/internal/hb"
	"treeclock/internal/trace"
	"treeclock/internal/vt"
)

// Orders lists the partial orders of the paper's tables in its
// reporting order. Each is measured as the registry pair "<o>-tree"
// and "<o>-vc", which share the algorithm and differ only in the clock.
var Orders = []string{"maz", "shb", "hb"}

// Result is one measured engine run.
type Result struct {
	Trace    string
	Engine   string
	Analysis bool
	Events   int
	Threads  int
	Elapsed  time.Duration
	Work     vt.WorkStats // populated only when work counting was on
	Pairs    uint64       // detected races / reversible pairs
}

// Seconds returns the elapsed time in seconds.
func (r Result) Seconds() float64 { return r.Elapsed.Seconds() }

// Config controls a single run.
type Config struct {
	Engine   string // registry name, e.g. "hb-tree" (see treeclock.Engines)
	Analysis bool   // also run the race / reversible-pair analysis
	Work     bool   // count data-structure work (adds overhead)
}

// Run executes one registry engine over the trace and reports the
// measurement. An unknown engine name is a programming error and
// panics.
func Run(tr *trace.Trace, cfg Config) Result {
	var (
		st   vt.WorkStats
		opts []treeclock.StreamOption
	)
	if !cfg.Analysis {
		opts = append(opts, treeclock.StreamNoAnalysis())
	}
	if cfg.Work {
		opts = append(opts, treeclock.StreamWorkStats(&st))
	}
	src := treeclock.NewTraceReplayer(tr)
	start := time.Now()
	out, err := treeclock.RunStreamSource(cfg.Engine, src, opts...)
	elapsed := time.Since(start)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return Result{
		Trace:    tr.Meta.Name,
		Engine:   cfg.Engine,
		Analysis: cfg.Analysis,
		Events:   tr.Len(),
		Threads:  tr.Meta.Threads,
		Elapsed:  elapsed,
		Work:     st,
		Pairs:    out.Summary.Total,
	}
}

// RunMean repeats the run and returns the result with the mean elapsed
// time (the paper averages 3 measurements).
func RunMean(tr *trace.Trace, cfg Config, repeats int) Result {
	if repeats < 1 {
		repeats = 1
	}
	res := Run(tr, cfg)
	total := res.Elapsed
	for i := 1; i < repeats; i++ {
		total += Run(tr, cfg).Elapsed
	}
	res.Elapsed = total / time.Duration(repeats)
	return res
}

// TimeHB times the happens-before order over tr on clocks built by f.
// It is the ablation's engine path: the tree-clock ablation modes
// (core.FactoryMode) live below the registry, which builds only the
// full algorithm, so every ablation row — each mode and the vector
// clock — runs through this one helper.
func TimeHB[C vt.Clock[C]](tr *trace.Trace, f vt.Factory[C]) time.Duration {
	rt := engine.New[C](hb.NewSemantics[C](), f)
	start := time.Now()
	rt.Process(tr.Events)
	return time.Since(start)
}
